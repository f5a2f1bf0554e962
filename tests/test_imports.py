"""Import boundaries between permap modules.

No module imports a private (`_`-prefixed) name from another one: a
helper two modules need belongs, public, to one of them. And `layers`
reads no events: the CLI builds locations and the sequence layer, and
`layers` only weights them.

Two checks keep dead code out: every public function, class and method
is read by the package or the benchmark, not only by tests, and no
module imports a name it never reads.

`fileio` alone knows the file formats: no other module makes a
`csv.writer` or names the `utf-8-sig` codec.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permap"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


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


def public_definitions(tree) -> list:
    """(name, node) of each public top-level function or class, and of its public methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def referenced_names(node) -> Counter:
    """How often each name is read in `node`, as a bare name or as an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(modules: dict, outside: Counter) -> list:
    """Public definitions in `modules` (file name -> source) that nothing outside themselves reads.

    A definition is read where its name appears as a name or an attribute
    in any of the modules, outside its own body, or in `outside`, the
    names read elsewhere. Imports, docstrings and `__init__` do not count.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = Counter(outside)
    for name, tree in trees.items():
        if name != "__init__.py":
            reads += referenced_names(tree)
    return sorted(
        f"{name[:-3]}.{qualname}"
        for name, tree in trees.items()
        for qualname, node in public_definitions(tree)
        if reads[node.name] - referenced_names(node)[node.name] <= 0
    )


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` imports and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    found.append((node.lineno, bound))
    return found


def test_the_definition_check_sees_functions_classes_and_methods():
    modules = {
        "a.py": (
            '"""Docstrings never count: dead, spare."""\n'
            "def used():\n    return Box().size\n"
            "def dead():\n    return dead()\n"
            "def _private():\n    pass\n"
            "class Box:\n    def size(self):\n        return self.unused\n"
            "    def unused(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "def spare():\n    pass\n"
        ),
        "b.py": "from .a import dead\nx = used()\n",
        "__init__.py": "from .a import spare\nspare()\n",
    }
    assert unreferenced_definitions(modules, Counter()) == ["a.dead", "a.spare"]
    assert unreferenced_definitions(modules, Counter(["dead", "spare"])) == []


def test_every_public_definition_is_read_by_the_package_or_the_benchmark():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    outside = Counter()
    for path in PERFBENCH.glob("*.py"):
        outside += referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert unreferenced_definitions(modules, outside) == []


def test_the_import_check_sees_every_import_form():
    source = "from __future__ import annotations\nimport numpy as np\nimport scipy.sparse\n"
    source += "from .graphs import a, b as c\nfrom . import geo\nimport os\n"
    source += "x: a = np.zeros(1)\nscipy.sparse.eye(2)\nos.path\n"
    assert unused_imports(source) == [(4, "c"), (5, "geo")]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def file_format_uses(source: str) -> list:
    """(line, what) of each `csv.writer` reference and each string naming the utf-8-sig codec."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "writer":
            if isinstance(node.value, ast.Name) and node.value.id == "csv":
                found.append((node.lineno, "csv.writer"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            if any(alias.name == "writer" for alias in node.names):
                found.append((node.lineno, "csv.writer"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.lower().replace("_", "-") == "utf-8-sig":
                found.append((node.lineno, "utf-8-sig"))
    return sorted(found)


def test_the_file_format_check_sees_writers_and_the_bom_codec():
    source = "import csv\nfrom csv import reader, writer\nw = csv.writer(fh)\n"
    source += "open(p, encoding='utf-8-sig')\nopen(p, encoding='UTF_8_SIG')\n"
    source += "csv.reader(fh)\nopen(p, encoding='utf-8')\n'utf-8-sig is the BOM codec'\n"
    assert file_format_uses(source) == [
        (2, "csv.writer"),
        (3, "csv.writer"),
        (4, "utf-8-sig"),
        (5, "utf-8-sig"),
    ]


def test_only_fileio_knows_the_file_formats():
    found = {
        path.name: file_format_uses(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "fileio.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert file_format_uses((PACKAGE / "fileio.py").read_text(encoding="utf-8")) != []
