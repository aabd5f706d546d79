"""Structural rules over the library's own source files."""
import ast
from pathlib import Path

import pytest

import spherecsf

SOURCES = sorted(Path(spherecsf.__file__).parent.glob("*.py"))


def patched_attributes(source: str) -> list:
    """(line, target) of each attribute assigned or deleted through a name that
    an import binds: a module (`flow._evolve = ...`), or a name imported from
    one."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_patched_attributes_finds_a_swapped_module_function():
    source = ("from . import flow\nimport numpy as np\n"
              "def f(x):\n    x.y = 1\n    flow._evolve = None\n    del np.linalg.norm\n")
    assert patched_attributes(source) == [(5, "flow._evolve"), (6, "np.linalg.norm")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_patches_another(path):
    # a module reports what it does through its return values: none of them
    # swaps an attribute of another module (such as the stepper) to observe it
    assert patched_attributes(path.read_text()) == []
