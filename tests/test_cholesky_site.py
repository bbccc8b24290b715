"""Every Cholesky factorisation of the package is made in spaces.py (by
_whitening_factors), so no other module calls np.linalg.cholesky."""

import ast
from pathlib import Path

import pytest

import istruct

MODULES = sorted(p for p in Path(istruct.__file__).parent.glob("*.py")
                 if p.name != "spaces.py")


def _cholesky_lines(tree: ast.Module) -> list:
    """Lines that name cholesky: as an attribute (np.linalg.cholesky) or as
    a name imported from numpy.linalg."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cholesky":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == "cholesky"]
    return lines


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_cholesky_is_called_only_in_spaces(path):
    lines = _cholesky_lines(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} calls cholesky at lines {lines}; use spaces._whitening_factors"


def test_the_check_sees_a_call():
    assert _cholesky_lines(ast.parse("import numpy as np\nL = np.linalg.cholesky(G)\n")) == [2]
    assert _cholesky_lines(ast.parse("from numpy.linalg import cholesky\n")) == [1]
    spaces = Path(istruct.__file__).parent / "spaces.py"
    assert _cholesky_lines(ast.parse(spaces.read_text(encoding="utf-8")))
