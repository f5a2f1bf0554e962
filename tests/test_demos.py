"""Each demo runs as a script and prints the result it claims, not only exit 0.

The README's Python examples run too, and every `module.name` the README
or a docstring of the package names in backticks still exists.
"""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "permap"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
# `module.name` or `permap.module.name`, possibly a dotted chain, opening a backticked span.
MODULE_REFERENCE = re.compile(
    r"`(?:permap\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
)


def run_demo(name: str) -> str:
    (script,) = ROOT.glob(f"demos/{name}_*.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_demo_is_covered():
    assert sorted(p.name[:2] for p in ROOT.glob("demos/0*.py")) == ["01", "02", "03", "04", "05"]


def test_01_recovers_longitude_order():
    assert "longitude order recovered" in run_demo("01")


def test_02_ratio_rises_with_every_nonzero_cost():
    rows = [line.split() for line in run_demo("02").splitlines()]
    costs = [row for row in rows if row and re.fullmatch(r"\d+", row[0])]
    nonzero = [row for row in costs if int(row[0]) != 0]
    assert len(costs) == 5 and len(nonzero) == 4
    assert all(row[-1] == "(up)" for row in nonzero)


def test_03_both_p_blocks_name_kidal_and_niamey():
    verdicts = [line for line in run_demo("03").splitlines() if "fastest-growing drift" in line]
    assert len(verdicts) == 2
    assert all(line.endswith("Kidal and Niamey") for line in verdicts)


def test_04_raided_pair_sits_closer():
    assert "sits closer" in run_demo("04")


def test_05_cli_runs_and_prints_three_ratios():
    out = run_demo("05")
    assert out.count("[exit 0]") == out.count("[exit ") == 3
    table = out.split("value,separation_ratio\n", 1)[1].splitlines()
    ratios = [line for line in table if re.fullmatch(r"[\d.]+,[\d.]+", line)]
    assert len(ratios) == 3


def test_readme_python_blocks_run_in_order():
    # The second block reuses the names the first one defines.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["emb"].location_ids().tolist() == [0, 1, 2]
    assert namespace["vectors"].shape == (3, 2)
    assert out.getvalue()


def module_references(text: str) -> set:
    """(module, dotted name) of each backticked reference to a permap module in `text`."""
    return set(MODULE_REFERENCE.findall(text))


def docstrings():
    """(file name, docstring) of every module, class and function of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield path.name, doc


def test_the_reference_check_sees_prefixed_chained_and_called_names():
    text = (
        "`graphs.WeightMatrix`, `permap.layers.LAYOUTS`, `layers.Prepared.distances`, "
        "`layers.walk_block(w, layer)`, `geo._BLOCK_BYTES`; not `np.ones` nor graphs.bare"
    )
    assert module_references(text) == {
        ("graphs", "WeightMatrix"),
        ("layers", "LAYOUTS"),
        ("layers", "Prepared.distances"),
        ("layers", "walk_block"),
        ("geo", "_BLOCK_BYTES"),
    }


def test_every_module_name_the_docs_cite_exists():
    cited = [("README.md", ref) for ref in module_references((ROOT / "README.md").read_text())]
    cited += [(name, ref) for name, doc in docstrings() for ref in module_references(doc)]
    assert len(cited) > 30
    missing = []
    for where, (module, dotted) in cited:
        found = importlib.import_module(f"permap.{module}")
        for attr in dotted.split("."):
            found = getattr(found, attr, missing)
        if found is missing:
            missing.append(f"{where}: {module}.{dotted}")
    assert not missing, missing
