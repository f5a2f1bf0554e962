"""Import boundaries between permap modules.

No module imports a private (`_`-prefixed) name from another one: a
helper two modules need belongs, public, to one of them. And `layers`
reads no events: the CLI builds locations and the sequence layer, and
`layers` only weights them.
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


def permap_modules_imported(source: str) -> set:
    """Names of the permap modules that `source` imports from, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("permap.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "permap":
                    continue
                module = module.partition(".")[2]
            # `from . import x` names the module x itself.
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
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


def test_the_module_check_sees_every_import_form():
    source = "from .ingest import a\nfrom . import sequence, geo\nimport permap.config\n"
    source += "from permap.spectral import b\nfrom permap import errors\nimport numpy\n"
    source += "from numpy import linalg\n"
    want = {"ingest", "sequence", "geo", "config", "spectral", "errors"}
    assert permap_modules_imported(source) == want


def test_layers_imports_nothing_from_ingest_or_sequence():
    source = (PACKAGE / "layers.py").read_text(encoding="utf-8")
    assert permap_modules_imported(source) & {"ingest", "sequence"} == set()
