import ast
from pathlib import Path

import boundarylab


def private_imports() -> list[tuple[str, str | None, str]]:
    """Every relative import of an underscore name from another module of
    the package, as (importing module, source module, name)."""
    found = []
    for path in sorted(Path(boundarylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module != path.stem:
                found += [(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_private_imports_between_modules():
    # no module reads another module's internals
    assert private_imports() == []
