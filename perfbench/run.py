"""Seeded end-to-end benchmark of the permap CLI.

Usage, from the root of a permap checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's events CSV and config from the seed and
computes the dense reference used by the correctness gate. The measured
phase then spawns fresh child processes that run the real `permap embed`
or `permap sweep` until S seconds have passed, checking every output.
With --trace 0 it reports the end-to-end metrics of untraced runs; with
--trace 1 it alternates untraced and traced runs and reports per-layer
self times and counts, plus the tracing overhead. The last line of
standard output is one JSON object; a copy with the environment, the
workload's properties and every sample goes to .perfbench/results/.
"""

from __future__ import annotations

import os

# BLAS threads are capped at the CPUs this process may use, before numpy
# loads here or in any child.
_CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), _CPUS)) if _have.isdigit() and int(_have) > 0 else str(_CPUS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
STATE_DIR = ".perfbench"
CHILD_TIMEOUT_S = 150.0
# Set-up probes per run; one more runs first, untimed, to warm the page cache.
SETUP_PROBES = 10

# Self time of these spans sums into each per-layer time metric.
SPAN_METRICS = {
    "config.load_config": "config.load_s",
    "ingest.parse_events": "ingest.parse_s",
    "ingest.filter_violent": "ingest.filter_s",
    "ingest.build_locations": "ingest.locations_s",
    "geo.distance_matrix": "geo.distance_s",
    "geo.load_reference_borders": "geo.crossings_s",
    "geo.crossings_matrix": "geo.crossings_s",
    "geo.invert_distances": "geo.weights_s",
    "geo.linear_border_distances": "geo.weights_s",
    "geo.border_permeability_matrix": "geo.weights_s",
    "sequence.split_groups": "sequence.split_s",
    "sequence.sequence_adjacency": "sequence.adjacency_s",
    "layers.build_two_layer": "layers.assembly_s",
    "layers.build_three_layer": "layers.assembly_s",
    "layers.displacement": "layers.displacement_s",
    "layers.country_separation_ratio": "layers.separation_s",
    "spectral.embed": "spectral.embed_s",
    "spectral.eigensolve_symmetric": "spectral.eigensolve_s",
    "spectral.connected_components": "spectral.components_s",
    "graphs.laplacian": "graphs.laplacian_s",
    "spectral.write_embedding_csv": "export.write_s",
    "spectral.write_eigenvalues_csv": "export.write_s",
    "layers.write_displacement_csv": "export.write_s",
    "ingest.write_rejections_csv": "export.write_s",
    "config.write_manifest": "export.write_s",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS.values()},
    "ingest.calls": "count",
    "ingest.rows_read": "count",
    "ingest.rows_rejected": "count",
    "ingest.rows_per_s": "rows/s",
    "geo.dense_bytes": "bytes_computed",
    "sequence.transitions": "count",
    "layers.system_n": "count",
    "layers.system_nnz": "count",
    "spectral.dense_solves": "count",
    "spectral.iterative_solves": "count",
    "spectral.max_residual": "abs",
    "spectral.rel_gap": "ratio",
    "export.bytes": "bytes",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    """One child process as the parent saw it."""

    mode: str
    part: int  # which generated input
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float | None
    code: int | None
    spans: list = field(default_factory=list)


def _spawn(root: Path, mode: str, part: int, argv: list, work: Path, index: int) -> Sample:
    report = work / f"child-{index}.json"
    cmd = [sys.executable, str(CHILD), str(report), mode, "--", *argv]
    with open(work / f"child-{index}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - start
    try:
        info = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return Sample(mode, part, wall, None, None, None)
    rss = info["peak_rss_kb"] / 1024.0 if info["peak_rss_kb"] is not None else None
    return Sample(mode, part, wall, info["ready"] - start, rss, proc.returncode, info["spans"])


def _input_mean(samples: list, attr: str) -> float:
    """Mean over generated inputs of each input's median, so inputs weigh the same."""
    parts = sorted({s.part for s in samples})
    per_part = [[getattr(s, attr) for s in samples if s.part == p and getattr(s, attr) is not None]
                for p in parts]
    return statistics.fmean(_median(v) for v in per_part)


def _self_times(spans: list) -> list:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(sample: Sample) -> dict:
    """Per-layer self times and counts of one traced run."""
    out = {name: 0.0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    spans = sample.spans
    top = 0.0
    gaps = []
    for (name, start, end, parent, counts), own in zip(spans, _self_times(spans)):
        if name in SPAN_METRICS:
            out[SPAN_METRICS[name]] += own
        if parent is None:
            top += end - start
        if name == "ingest.parse_events":
            out["ingest.calls"] += 1
            out["ingest.rows_read"] += counts["rows_read"]
            out["ingest.rows_rejected"] += counts["rows_rejected"]
        out["geo.dense_bytes"] += counts.get("dense_bytes", 0)
        out["sequence.transitions"] += counts.get("transitions", 0)
        out["export.bytes"] += counts.get("bytes", 0)
        if name == "spectral.embed":
            out["layers.system_n"] = max(out["layers.system_n"], counts["system_n"])
            out["layers.system_nnz"] = max(out["layers.system_nnz"], counts["system_nnz"])
        if name == "spectral.eigensolve_symmetric":
            key = "spectral.dense_solves" if counts["dense"] else "spectral.iterative_solves"
            out[key] += 1
            out["spectral.max_residual"] = max(out["spectral.max_residual"], counts["max_residual"])
            if counts["rel_gap"] is not None:
                gaps.append(counts["rel_gap"])
    out["spectral.rel_gap"] = min(gaps, default=0.0)
    if out["ingest.parse_s"] > 0:
        out["ingest.rows_per_s"] = out["ingest.rows_read"] / out["ingest.parse_s"]
    out["cli.other_s"] = sample.wall_s - top
    return out


def _median(values):
    return statistics.median(values) if values else float("nan")


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git, if it is a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": _CPUS,
        "cpu_model": cpu_model,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "permap_commit": _commit(root),
        "permap_source_sha256": _source_digest(root / "src" / "permap"),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "permap"
    if not (package / "__init__.py").is_file():
        print(f"error: no permap sources at {package}; run from a permap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import permap

    if Path(permap.__file__).resolve().parent != package.resolve():
        print(f"error: imported permap from {permap.__file__}, not {package}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    state = root / STATE_DIR
    work = state / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(root, workload, args, work, state / "results")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _properties(gen, gate) -> dict:
    """What one generated input measured as: sizes, solver side, eigengap."""
    from permap import spectral

    props = dict(gen.properties)
    cutoff = getattr(spectral, "DENSE_CUTOFF", None)
    props["dense_cutoff"] = cutoff
    props["dense_side"] = None if cutoff is None else props["system_n"] <= cutoff
    props["rel_eigengap"] = min(ref.rel_gap for ref in gate.refs)
    props["eigenvalues"] = {ref.label or "embed": ref.values[1:].tolist() for ref in gate.refs}
    return props


def _bench(root: Path, workload, args, work: Path, results: Path) -> int:
    t0 = time.perf_counter()
    gens = [workloads.generate(workload, args.seed, part, work / f"input-{part}")
            for part in range(workload.inputs)]
    gates = [check.Gate(workload, gen) for gen in gens]
    prepare_s = time.perf_counter() - t0
    properties = [_properties(gen, gate) for gen, gate in zip(gens, gates)]

    argvs = [[workload.command, "--config", str(gen.config_json)] for gen in gens]
    samples: list[Sample] = []
    modes = ("run", "trace") if args.trace else ("run",)

    probe_argv = argvs[0] + ["--out", str(work / "unused")]
    _spawn(root, "setup", 0, probe_argv, work, 0)
    deadline = time.perf_counter() + args.seconds
    for i in range(SETUP_PROBES):
        samples.append(_spawn(root, "setup", 0, probe_argv, work, i))
    # Each input gets every mode before moving to the next input.
    i = 0
    while i < len(modes) or time.perf_counter() < deadline:
        part = (i // len(modes)) % len(gens)
        out_dir = work / f"out-{i}"
        argv = argvs[part] + ["--out", str(out_dir)]
        sample = _spawn(root, modes[i % len(modes)], part, argv, work, SETUP_PROBES + i)
        samples.append(sample)
        gates[part].run(out_dir, sample.code)
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
    attempted = sum(g.attempted for g in gates)
    failures = [f"input {part}: {f}" for part, g in enumerate(gates) for f in g.failures]

    runs = [s for s in samples if s.mode == "run"]
    traced = [s for s in samples if s.mode == "trace"]
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    if args.trace:
        per_run = [layer_metrics(s) for s in traced]
        values = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
        both = {s.part for s in traced} & {s.part for s in runs}
        values["trace.overhead_s"] = _input_mean(
            [s for s in traced if s.part in both], "wall_s"
        ) - _input_mean([s for s in runs if s.part in both], "wall_s")
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": _input_mean(runs, "wall_s"),
            "setup_s": _median(setups),
            "peak_rss_mb": _input_mean(runs, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "properties": properties,
        "prepare_s": prepare_s,
        "samples": [vars(s) | {"spans": len(s.spans)} for s in samples],
        "failures": failures,
        "result": result,
    }
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}: {workload.why}")
    for part, props in enumerate(properties):
        print(f"input {part} properties " + json.dumps(props, sort_keys=True))
    print(f"prepare_s {prepare_s:.3f} (generation and dense reference, not timed)")
    print(
        f"samples: {len(runs)} untraced, {len(traced)} traced, {len(setups)} set-up; "
        f"fail_share {len(failures)}/{attempted}"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"record {out_file.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
