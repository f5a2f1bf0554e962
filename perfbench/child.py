"""One measured CLI invocation, run as a fresh child process.

Usage: python3 perfbench/child.py REPORT MODE -- permap-cli-args...

Imports permap from ./src and loads the config once to mark the end of
set-up. MODE "setup" stops there; "run" and "trace" then call the real
`permap.cli.main` with the given arguments. With "trace" the public
functions the CLI reaches are wrapped from the outside to record spans (name, start, end, parent) in memory; nothing
under src/ changes. The report (set-up timestamp, exit code, spans) is
written to REPORT as JSON, with the peak RSS, when the CLI returns. Timestamps come from
`time.perf_counter`, which on Linux reads the system-wide monotonic clock,
so the parent can compare them with its own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# Public functions traced per module. A name a later version of permap no
# longer defines is skipped.
TRACED = {
    "config": ("load_config", "write_manifest"),
    "ingest": ("parse_events", "filter_violent", "build_locations", "write_rejections_csv"),
    "sequence": ("split_groups", "sequence_adjacency"),
    "geo": (
        "load_reference_borders",
        "crossings_matrix",
        "distance_matrix",
        "invert_distances",
        "linear_border_distances",
        "border_permeability_matrix",
    ),
    "layers": (
        "build_two_layer",
        "build_three_layer",
        "displacement",
        "country_separation_ratio",
        "write_displacement_csv",
    ),
    "graphs": ("laplacian",),
    "spectral": (
        "embed",
        "connected_components",
        "eigensolve_symmetric",
        "write_embedding_csv",
        "write_eigenvalues_csv",
    ),
}


def _values(obj):
    return getattr(obj, "values", obj)


def _square_bytes(obj) -> int:
    """Bytes of one dense float64 n x n matrix, computed from its shape."""
    shape = getattr(_values(obj), "shape", ())
    return 8 * shape[0] * shape[1] if len(shape) == 2 else 0


def _nnz(values) -> int:
    nnz = getattr(values, "nnz", None)
    return int(nnz) if nnz is not None else int((values != 0).sum())


def _probe(name: str, args, kwargs, result, spectral):
    """Counts recorded at the span boundary, from arguments and results only."""
    fn = name.split(".", 1)[1]
    if fn == "parse_events":
        events, report = result
        return {"rows_read": len(events) + len(report), "rows_rejected": len(report)}
    if name.startswith("geo.") and fn != "load_reference_borders":
        return {"dense_bytes": _square_bytes(result)}
    if fn == "sequence_adjacency":
        return {"transitions": float(_values(result).sum())}
    if fn == "embed":
        w = _values(args[0])
        return {"system_n": int(w.shape[0]), "system_nnz": _nnz(w)}
    if fn == "eigensolve_symmetric":
        n = _values(args[0]).shape[0]
        count = args[1] if len(args) > 1 else kwargs["count"]
        cutoff = kwargs.get("dense_cutoff", getattr(spectral, "DENSE_CUTOFF", None))
        dense = cutoff is not None and (n <= cutoff or count >= n - 1)
        vals = [float(v) for v in result.values]
        gaps = [(vals[i + 1] - vals[i]) / vals[i + 1] for i in range(1, len(vals) - 1)]
        return {
            "dense": int(dense),
            "max_residual": float(max(result.residuals)),
            "rel_gap": min(gaps) if gaps else None,
        }
    if fn.startswith("write_"):
        paths = [a for a in args if isinstance(a, (str, os.PathLike)) and os.path.isfile(a)]
        return {"bytes": sum(os.path.getsize(p) for p in paths)}
    return {}


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index, counts]."""

    def __init__(self, spectral):
        self.spans: list = []
        self._stack: list = []
        self._spectral = spectral

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[4] = _probe(name, args, kwargs, result, self._spectral)
            return result

        return traced

    def install(self, package):
        """Replace every module-level reference to a traced function with its wrapper."""
        import importlib

        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in (*TRACED, "cli")
        }
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            module = modules[mod_name]
            for fn_name in fn_names:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    wrappers[id(fn)] = self.wrap(f"{mod_name}.{fn_name}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    setattr(module, attr, wrappers[id(value)])


def _peak_rss_kb() -> int | None:
    """High-water RSS of this program image (VmHWM), in kB.

    The parent's ru_maxrss from wait4 would not do: Linux carries the RSS a
    forked child had before exec into it, and that is the parent's own.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _config_arg(argv) -> str:
    return argv[argv.index("--config") + 1]


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    sys.path.insert(0, str(Path.cwd() / "src"))
    import permap.cli
    from permap import config as config_mod, spectral

    config_mod.load_config(_config_arg(argv))
    ready = time.perf_counter()
    tracer = Tracer(spectral) if mode == "trace" else None
    if tracer:
        tracer.install(permap)
    code = permap.cli.main(argv) if mode != "setup" else 0
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "ready": ready,
                "code": code,
                "peak_rss_kb": _peak_rss_kb(),
                "spans": tracer.spans if tracer else [],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
