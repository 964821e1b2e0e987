"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy and the package itself. Importing the
package does no more than its one module-level allocation: no warning, no
thread and no child process."""

import ast
import os
import pathlib
import subprocess
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


QUIET_IMPORT = """
import os, threading
import knnrex
assert threading.active_count() == 1, threading.enumerate()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise AssertionError("importing knnrex left a child process")
"""


def test_import_starts_no_thread_or_process_and_warns_nothing():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(knnrex.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", QUIET_IMPORT],
                         capture_output=True, text=True, env=env, timeout=600)
    assert (run.returncode, run.stderr) == (0, "")
