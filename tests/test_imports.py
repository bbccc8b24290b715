"""What the package imports: no module imports a name it never uses (no
linter is installed, so this is the check), and importing the CLI loads no
numpy submodule it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import istruct

MODULES = sorted(p for p in Path(istruct.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """name bound by an import -> its line, for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    """Every name the module loads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_importing_the_cli_does_not_load_numpy_polynomial():
    # numpy loads numpy.polynomial only on first use, and it costs a few ms of
    # every process that imports the package
    code = "import sys, istruct.cli\nprint('numpy.polynomial' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(istruct.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
