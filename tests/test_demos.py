"""Each demo runs as a script and prints the result it claims, not only exit 0."""

import os
import re
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


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
