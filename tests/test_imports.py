"""No permap module imports a private (`_`-prefixed) name from another one.

A helper two modules need belongs, public, to one of them; a private
name stays in the module that defines it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permap"


def private_imports(source: str) -> list:
    """(line, module, name) of every private name imported from a permap module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "permap":
            continue
        found += [(node.lineno, module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_the_check_sees_relative_and_absolute_imports():
    source = "from . import _x\nfrom .graphs import a, _b\nfrom permap.layers import _c\n"
    source += "from __future__ import annotations\nfrom numpy import _d\n"
    assert private_imports(source) == [(1, "", "_x"), (2, "graphs", "_b"), (3, "permap.layers", "_c")]


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in modules
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
