import ast
from pathlib import Path

import boundarylab


def relative_imports() -> list[tuple[str, str | None, str]]:
    """Every relative import of a name from another module of the
    package, as (importing module, source module, name)."""
    found = []
    for path in sorted(Path(boundarylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module != path.stem:
                found += [(path.stem, node.module, a.name) for a in node.names]
    return found


def private_imports() -> list[tuple[str, str | None, str]]:
    """The relative imports of underscore names."""
    return [imp for imp in relative_imports() if imp[2].startswith("_")]


def test_private_imports_between_modules():
    # no module reads another module's internals
    assert private_imports() == []


def importers(module: str, name: str) -> list[str]:
    """Every module of the package that imports `name` from `module`."""
    return [stem for stem, *imported in relative_imports() if imported == [module, name]]


def test_translate_is_imported_by_crossed_alone():
    # the crossed-product law, F u_g . G u_h = F translate(g, G) u_gh, has
    # one home: every other module multiplies crossed elements
    assert importers("cylinders", "translate") == ["crossed"]
