import importlib
import pkgutil

import pytest
from hypothesis import settings

import boundarylab

# Every run draws the same examples, so a property test costs the same
# time on each run; each test keeps its own max_examples and deadline.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def memo_tables() -> dict[str, object]:
    """Every module-level lru_cache of the package, by "module.name"."""
    found = {}
    for info in pkgutil.iter_modules(boundarylab.__path__):
        mod = importlib.import_module(f"boundarylab.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                found[f"{info.name}.{name}"] = obj
    return found
