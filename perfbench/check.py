"""Correctness gate that does not trust the program's eigensolver.

During set-up, outside the timed runs, every embed cell's system is
rebuilt through permap's public ingest, geo, sequence and layer builders,
its Laplacian is formed here, and a dense LAPACK reference (`eigh` over the
lowest k+2 eigenpairs) is computed once. Each CLI run is then checked
against that reference: eigenvalues, residuals of the exported
coordinates, the coordinate subspace up to rotation, displacement rows,
separation ratios, and byte-identical repeats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.spatial.distance import cdist

# Same relative scale as the solver's own residual gate.
RESIDUAL_RTOL = 1e-8
EIGENVALUE_RTOL = 1e-8
ORTHO_TOL = 1e-8
DISPLACEMENT_ATOL = 1e-12
SEPARATION_RTOL = 1e-9

# Files whose bytes must repeat exactly across runs of one code and input.
STABLE_FILES = ("embedding.csv", "eigenvalues.csv", "displacement.csv")


class CheckFailure(Exception):
    pass


@dataclass
class CellReference:
    """What one embed cell must reproduce."""

    label: str  # subdirectory of a sweep, "" for embed
    value: float | None
    laplacian: np.ndarray | None  # dropped once the cell is verified
    scale: float  # infinity norm of the Laplacian
    values: np.ndarray  # reference eigenvalues 0..k+1
    vectors: np.ndarray  # reference eigenvectors 1..k
    ref_residual: float  # Frobenius residual of the reference pairs
    system_n: int
    countries: tuple  # country per location id
    layer_pair: tuple | None

    @property
    def rel_gap(self) -> float:
        """Smallest relative gap between adjacent kept eigenvalues or at the cut."""
        vals = self.values
        gaps = [(vals[i + 1] - vals[i]) / vals[i + 1] for i in range(1, len(vals) - 1)]
        return float(min(gaps))


def sweep_label(command: str, config: dict, value) -> str:
    if command != "sweep":
        return ""
    prefix = "cost_" if config["border_model"]["kind"] == "linear" else "p_"
    return prefix + repr(float(value))


def _laplacian(w) -> np.ndarray:
    dense = w.toarray() if sparse.issparse(w) else np.array(w, dtype=float)
    return np.diag(dense.sum(axis=1)) - dense


def build_references(workload, gen) -> list[CellReference]:
    """Rebuild each cell's weighted system through the public builders and solve it densely."""
    from permap import config as config_mod, geo, ingest, layers, sequence

    cfg = config_mod.load_config(gen.config_json)
    with open(cfg.events_csv, encoding="utf-8", newline="") as fh:
        events, report = ingest.parse_events(fh, cfg.column_map)
    if len(report) != gen.properties["rows_malformed"]:
        raise CheckFailure(
            f"reference ingest rejected {len(report)} rows, generator wrote "
            f"{gen.properties['rows_malformed']} malformed"
        )
    violent = ingest.filter_violent(events, cfg.categories)
    if cfg.split_rules:
        violent = sequence.split_groups(violent, cfg.split_rules)
    locations, mapping = ingest.build_locations(violent, cfg.rounding)
    if len(locations) != gen.properties["locations"]:
        raise CheckFailure(
            f"reference ingest found {len(locations)} locations, generator wrote "
            f"{gen.properties['locations']}"
        )
    crossings = geo.crossings_matrix(locations, geo.load_reference_borders())
    distances = geo.distance_matrix(locations)
    countries = tuple(loc.country for loc in locations)
    seq = None
    if cfg.pipeline == "three_layer":
        location_of = {e.source_row: lid for e, lid in zip(violent, mapping)}
        seq = sequence.sequence_adjacency(violent, location_of, cfg.groups, len(locations))

    refs = []
    for value in workload.sweep_values():
        sub = cfg if value is None else cfg.with_border_value(value)
        model = sub.border_model
        pair = None
        if sub.pipeline == "geo":
            d = geo.linear_border_distances(distances, crossings, model.cost_km)
            weights = geo.invert_distances(d).values
        elif sub.pipeline == "two_layer":
            system = layers.build_two_layer(
                geo.invert_distances(distances),
                geo.border_permeability_matrix(crossings, model.p),
            )
            weights, pair = system.assembled.values, ("distance", "border")
        else:
            system = layers.build_three_layer(
                geo.border_permeability_matrix(crossings, model.p),
                geo.invert_distances(distances),
                seq,
            )
            weights, pair = system.assembled.values, ("distance", "border")
        lap = _laplacian(weights)
        k = sub.k
        vals, vecs = scipy.linalg.eigh(lap, subset_by_index=[0, k + 1], driver="evr")
        resid = float(np.linalg.norm(lap @ vecs - vecs * vals[None, :]))
        refs.append(
            CellReference(
                label=sweep_label(workload.command, workload.config, value),
                value=value,
                laplacian=lap,
                scale=float(np.abs(lap).sum(axis=1).max()),
                values=vals,
                vectors=vecs[:, 1 : k + 1],
                ref_residual=resid,
                system_n=lap.shape[0],
                countries=countries,
                layer_pair=pair,
            )
        )
    return refs


def _read_rows(path: Path) -> tuple[list, list]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stable_digests(cell_dir: Path) -> dict:
    return {name: _digest(cell_dir / name) for name in STABLE_FILES if (cell_dir / name).exists()}


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def expected_files(ref: CellReference) -> tuple:
    names = ("embedding.csv", "eigenvalues.csv", "rejections.csv", "manifest.json")
    return names + (("displacement.csv",) if ref.layer_pair else ())


def check_cell(cell_dir: Path, ref: CellReference, rows_malformed: int):
    """Full check of one cell's outputs; returns (coordinates, location id per point)."""
    for name in expected_files(ref):
        _expect((cell_dir / name).is_file(), f"{cell_dir.name or 'embed'}: missing {name}")

    header, rows = _read_rows(cell_dir / "embedding.csv")
    k = ref.vectors.shape[1]
    _expect(len(rows) == ref.system_n, f"embedding has {len(rows)} rows, expected {ref.system_n}")
    _expect(header[4 : 4 + k] == ["x", "y", "z"][:k], f"unexpected embedding header {header}")
    _expect([int(r[0]) for r in rows] == list(range(ref.system_n)), "point ids are not 0..n-1")
    loc_ids = np.array([int(r[1]) for r in rows])
    _expect(
        all(r[-1] == ref.countries[lid] for r, lid in zip(rows, loc_ids)),
        "embedding country column does not match the location's country",
    )
    coords = np.array([[float(c) for c in r[4 : 4 + k]] for r in rows])

    _, eig_rows = _read_rows(cell_dir / "eigenvalues.csv")
    lam = np.array([float(r[1]) for r in eig_rows])
    _expect(lam.shape == (k,), f"expected {k} eigenvalues, got {lam.shape[0]}")
    bound = EIGENVALUE_RTOL * max(ref.scale, 1.0)
    err = np.abs(lam - ref.values[1 : k + 1])
    _expect(bool((err <= bound).all()), f"eigenvalues {lam} differ from dense reference "
            f"{ref.values[1:k + 1]} by {err.max():.3e} > {bound:.3e}")

    resid = np.linalg.norm(ref.laplacian @ coords - coords * lam[None, :], axis=0)
    limit = RESIDUAL_RTOL * max(ref.scale, 1.0)
    _expect(bool((resid <= limit).all()), f"residual {resid.max():.3e} > {limit:.3e}")
    gram = coords.T @ coords
    _expect(float(np.abs(gram - np.eye(k)).max()) <= ORTHO_TOL, "coordinates are not orthonormal")
    drift = float(np.abs(coords.sum(axis=0)).max()) / math.sqrt(ref.system_n)
    _expect(drift <= ORTHO_TOL, "coordinates are not orthogonal to the constant vector")
    # Davis-Kahan: the subspace error is bounded by residual over the gap
    # separating the kept eigenvalues from the rest of the spectrum.
    gap = min(ref.values[1] - ref.values[0], ref.values[k + 1] - ref.values[k])
    tol = 10.0 * (float(np.linalg.norm(resid)) + ref.ref_residual) / gap + 1e-10
    angle = float(np.max(scipy.linalg.subspace_angles(coords, ref.vectors)))
    _expect(math.sin(angle) <= tol, f"coordinate subspace off by sin={math.sin(angle):.3e} > {tol:.3e}")

    _, rej_rows = _read_rows(cell_dir / "rejections.csv")
    _expect(len(rej_rows) == rows_malformed,
            f"{len(rej_rows)} rejections, generator wrote {rows_malformed} malformed rows")
    manifest = json.loads((cell_dir / "manifest.json").read_text(encoding="utf-8"))
    _expect(manifest.get("_meta", {}).get("command") == "embed", "manifest lacks the embed command")

    if ref.layer_pair:
        _check_displacement(cell_dir / "displacement.csv", rows, coords, ref)
    return coords, loc_ids


def _check_displacement(path: Path, emb_rows: list, coords: np.ndarray, ref: CellReference):
    _, rows = _read_rows(path)
    k = coords.shape[1]
    n = len(ref.countries)
    _expect(len(rows) == n, f"displacement has {len(rows)} rows, expected {n}")
    layer_a, layer_b = ref.layer_pair
    sums = {layer: np.zeros((n, k)) for layer in ref.layer_pair}
    counts = {layer: np.zeros(n) for layer in ref.layer_pair}
    for row, point in zip(emb_rows, coords):
        layer = row[2]
        if layer in sums:
            sums[layer][int(row[1])] += point
            counts[layer][int(row[1])] += 1
    expected = sums[layer_b] / counts[layer_b][:, None] - sums[layer_a] / counts[layer_a][:, None]
    lengths = []
    for row in rows:
        lid = int(row[0])
        _expect((row[1], row[2]) == (layer_a, layer_b), f"displacement pair {row[1:3]}")
        vec = np.array([float(c) for c in row[3 : 3 + k]])
        _expect(bool(np.abs(vec - expected[lid]).max() <= DISPLACEMENT_ATOL),
                f"displacement of location {lid} does not match the embedding")
        lengths.append((-float(row[3 + k]), lid))
    _expect(lengths == sorted(lengths), "displacement rows are not sorted longest first")


def separation_ratio(coords: np.ndarray, loc_ids: np.ndarray, countries: np.ndarray) -> float:
    """Mean inter-country over mean intra-country distance, excluding same-location pairs."""
    dist = cdist(coords, coords)
    upper = np.triu(np.ones(dist.shape, dtype=bool), 1) & (loc_ids[:, None] != loc_ids[None, :])
    same = countries[:, None] == countries[None, :]
    return float(dist[upper & ~same].mean() / dist[upper & same].mean())


def check_ratio(got: float, coords: np.ndarray, loc_ids: np.ndarray, ref: CellReference):
    """Compare a sweep's separation ratio with one recomputed from the cell's coordinates."""
    want = separation_ratio(coords, loc_ids, np.array(ref.countries)[loc_ids])
    _expect(abs(got - want) <= SEPARATION_RTOL * abs(want),
            f"separation ratio {got!r}, recomputed {want!r}")


class Gate:
    """Checks every run of one generated input against its reference and its first run.

    The first passing run of a cell gets the full check; later runs must
    reproduce its stable files and separation ratio byte for byte.
    """

    def __init__(self, workload, gen):
        self.workload = workload
        self.rows_malformed = gen.properties["rows_malformed"]
        self.refs = build_references(workload, gen)
        self.verified: dict[str, tuple] = {}  # label -> (digests, separation ratio text)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, out_dir: Path, code: int | None):
        """Check one CLI invocation's output directory; every cell counts once."""
        self.attempted += len(self.refs)
        if code != 0:
            self.failures += [f"{ref.label or 'embed'}: exit code {code}" for ref in self.refs]
            return
        ratios = {}
        if self.workload.command == "sweep" and (out_dir / "separation_ratios.csv").is_file():
            ratios = {float(r[0]): r[1] for r in _read_rows(out_dir / "separation_ratios.csv")[1]}
        for ref in self.refs:
            try:
                self._cell(out_dir / ref.label, ref, ratios)
            # Unreadable or malformed output files fail the cell like a wrong value.
            except (CheckFailure, OSError, ValueError, IndexError, KeyError, StopIteration) as exc:
                self.failures.append(f"{ref.label or 'embed'}: {exc}")

    def _cell(self, cell_dir: Path, ref: CellReference, ratios: dict):
        sweep = self.workload.command == "sweep"
        if sweep and float(ref.value) not in ratios:
            raise CheckFailure("no separation ratio for this value")
        ratio = ratios.get(float(ref.value)) if sweep else None
        if ref.label in self.verified:
            for name in expected_files(ref):
                _expect((cell_dir / name).is_file(), f"missing {name}")
            _expect((stable_digests(cell_dir), ratio) == self.verified[ref.label],
                    "outputs differ from the first run of this input")
            return
        coords, loc_ids = check_cell(cell_dir, ref, self.rows_malformed)
        if sweep:
            check_ratio(float(ratio), coords, loc_ids, ref)
        self.verified[ref.label] = (stable_digests(cell_dir), ratio)
        ref.laplacian = None
