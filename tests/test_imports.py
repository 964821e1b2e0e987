"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy and the package itself."""

import ast
import pathlib
import sys

import knnrex

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "knnrex"}


def test_modules_import_only_stdlib_numpy_and_knnrex():
    package = pathlib.Path(knnrex.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"
