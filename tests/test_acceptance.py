"""Acceptance suite: one test per shipped guarantee, oracle-checked.

Each test here restates its expected answer independently (hand fixtures,
scripted reference constructions, or brute-force oracles) rather than
trusting the library's own arithmetic.
"""

import json
import math
import os
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import event_table, make_event, make_location
from oracles import (
    brute_force_sequence,
    jacobi_eigh,
    laplacian,
    matrix_operator,
    principal_angle_cos,
    three_layer_system,
    traversal_components,
    two_layer_walk_matrix,
)
from permap.cli import main
from permap.geo import (
    CountryBorderGraph,
    border_permeability_matrix,
    crossings_matrix,
    distance_matrix,
    invert_distances,
    linear_border_distances,
)
from permap.graphs import WeightMatrix, laplacian_operator
from permap.ingest import (
    DEFAULT_CATEGORIES,
    build_locations,
    filter_violent,
    parse_events,
    summarize,
)
from permap.layers import (
    build_three_layer,
    build_two_layer,
    country_separation_ratio,
    prepare,
    solve,
)
from permap.sequence import sequence_adjacency
from permap.spectral import eigensolve_symmetric, embed

ACLED_ENV = "PERMAP_ACLED_CSV"


def test_c01_laplacian_rows_symmetry_and_nullity():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        density = rng.uniform(0.05, 0.6)
        m = rng.uniform(0.1, 5.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
        m = np.triu(m, 1)
        m = m + m.T
        if not m.any():
            m[0, 1] = m[1, 0] = 1.0
        lap = laplacian(WeightMatrix(m))

        scale = max(np.abs(lap).max(), 1.0)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-9 * scale
        assert np.array_equal(lap, lap.T)

        eigenvalues = np.linalg.eigvalsh(lap)
        threshold = 1e-8 * eigenvalues.max()
        near_zero = int((eigenvalues < threshold).sum())
        component_count, _ = traversal_components(m.tolist())
        assert near_zero == component_count
    assert time.monotonic() - started < 10.0


def test_c02_eigensolver_matches_rotation_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    floor = math.cos(1e-6)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        count = int(rng.integers(1, n + 1))
        m = rng.uniform(-2.0, 2.0, (n, n))
        m = (m + m.T) / 2.0

        got = eigensolve_symmetric(matrix_operator(m), count)
        want_values, want_vectors = jacobi_eigh(m.tolist())
        assert np.abs(got.values - np.array(want_values[:count])).max() <= 1e-8
        oracle_basis = np.array([row[:count] for row in want_vectors])
        assert principal_angle_cos(got.vectors, oracle_basis) >= floor
    assert time.monotonic() - started < 10.0


def test_c03_analytic_fixtures():
    # 3-node path: characteristic polynomial -x (x^2 - 4x + 3) has roots 0, 1, 3
    path = WeightMatrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    got = eigensolve_symmetric(laplacian_operator(path), 3).values
    assert np.abs(got - np.array([0.0, 1.0, 3.0])).max() <= 1e-8

    # one edge of weight w: nonzero eigenvalue is 2w
    for w in (1.0, 2.5, 7.25):
        emb = embed(WeightMatrix(np.array([[0.0, w], [w, 0.0]])), 1)
        assert abs(emb.eigenvalues[0] - 2.0 * w) <= 1e-8

    # 4-cycle: the embedded ring keeps all adjacent pairs equally far apart
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 1.0
    coords = embed(WeightMatrix(ring), 2).coordinates
    gaps = [np.linalg.norm(coords[i] - coords[(i + 1) % 4]) for i in range(4)]
    assert max(gaps) - min(gaps) <= 1e-6


def test_c04_border_permeability_worked_values():
    hops = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    w = border_permeability_matrix(hops, 0.95).values
    no_hops = border_permeability_matrix(np.zeros((2, 2), dtype=int), 0.95)
    assert abs(no_hops.values[0, 1] - 1.0) <= 1e-12
    assert abs(w[0, 1] - 0.95) <= 1e-12
    assert abs(w[0, 2] - 0.9025) <= 1e-12
    three_hops = np.array([[0, 3], [3, 0]])
    assert abs(border_permeability_matrix(three_hops, 0.9).values[0, 1] - 0.729) <= 1e-12


def test_c05_zero_cost_run_is_byte_identical_to_geodesic(fixture_run, tmp_path, capsys):
    plain, zero = tmp_path / "plain", tmp_path / "zero"
    config = str(fixture_run["config"])
    assert main(["embed", "--config", config, "--out", str(plain)]) == 0
    assert (
        main(
            [
                "embed",
                "--config",
                config,
                "--out",
                str(zero),
                "--override",
                'border_model={"kind": "linear", "cost_km": 0.0}',
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (plain / "embedding.csv").read_bytes() == (zero / "embedding.csv").read_bytes()
    assert (plain / "eigenvalues.csv").read_bytes() == (zero / "eigenvalues.csv").read_bytes()


def _twenty_border_locations():
    rng = np.random.default_rng(20260825)
    locations = []
    for country, (lat, lon) in (("Mali", (14.0, -6.0)), ("Niger", (14.5, 4.0))):
        for i in range(10):
            locations.append(
                make_location(
                    lat + rng.uniform(-1.2, 1.2),
                    lon + rng.uniform(-1.2, 1.2),
                    country,
                    f"{country[0]}{i}",
                )
            )
    return locations


def test_c06_separation_ratio_monotone_in_border_strength():
    started = time.monotonic()
    locations = _twenty_border_locations()
    countries = tuple(loc.country for loc in locations)
    cg = CountryBorderGraph.from_pairs([("Mali", "Niger")])
    hops = crossings_matrix(locations, cg)
    distances = distance_matrix(locations)

    linear_ratios = []
    for cost in (0.0, 50.0, 100.0, 500.0):
        priced = linear_border_distances(distances, hops, cost)
        emb = embed(invert_distances(priced), 2)
        linear_ratios.append(
            country_separation_ratio(emb.coordinates, emb.location_ids(), countries)
        )
    assert all(b >= a for a, b in zip(linear_ratios, linear_ratios[1:]))
    assert linear_ratios[0] > 0

    coupled_ratios = []
    for p in (1.0, 0.95, 0.8, 0.5):
        emb, _ = solve(prepare("two_layer", locations, cg), p, 2)
        coupled_ratios.append(
            country_separation_ratio(emb.coordinates, emb.location_ids(), countries)
        )
    # the ratio may only grow as the per-border success probability drops
    assert all(b >= a for a, b in zip(coupled_ratios, coupled_ratios[1:]))
    assert time.monotonic() - started < 30.0


def test_c07_two_layer_walk_structure():
    rng = np.random.default_rng(1007)
    for n in (2, 5, 9):
        m1 = rng.uniform(0.1, 3.0, (n, n))
        m2 = rng.uniform(0.1, 3.0, (n, n))
        w_a = WeightMatrix((m1 + m1.T) / 2 - np.diag(np.diag(m1)))
        w_b = WeightMatrix((m2 + m2.T) / 2 - np.diag(np.diag(m2)))
        walk = two_layer_walk_matrix(w_a, w_b)
        assert walk.shape == (2 * n, 2 * n)
        assert np.abs(walk.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.array_equal(walk[:n, n:], 0.5 * np.eye(n))
        assert np.array_equal(walk[n:, :n], 0.5 * np.eye(n))

    hand = two_layer_walk_matrix(
        WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        WeightMatrix(np.array([[0.0, 2.0], [2.0, 0.0]])),
    )
    assert np.array_equal(
        hand,
        [
            [0.0, 0.5, 0.5, 0.0],
            [0.5, 0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
        ],
    )


def test_c08_three_layer_assembly_matches_scripted_reference():
    w_border = [[0.0, 1.0, 0.95], [1.0, 0.0, 0.95], [0.95, 0.95, 0.0]]
    w_dist = [[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]]
    a_seq = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    want = three_layer_system(w_border, w_dist, a_seq)
    system = build_three_layer(
        WeightMatrix(np.array(w_border)),
        WeightMatrix(np.array(w_dist)),
        WeightMatrix(sparse.csr_matrix(a_seq)),
    )
    got = system.assembled.values
    assert got.shape == (18, 18)
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(got, got.T)


def test_c09_sequence_extraction_matches_brute_force():
    started = time.monotonic()
    rng = np.random.default_rng(1009)
    for _ in range(100):
        n_events = int(rng.integers(2, 51))
        n_groups = int(rng.integers(1, 6))
        n_locations = int(rng.integers(2, 9))
        events, location_ids = [], []
        for row in range(1, n_events + 1):
            events.append(
                make_event(
                    row,
                    group=f"G{rng.integers(0, n_groups)}",
                    when=date(2024, 1 + int(rng.integers(0, 12)), 1 + int(rng.integers(0, 28))),
                )
            )
            location_ids.append(int(rng.integers(0, n_locations)))
        groups = sorted({e.group_id for e in events})

        table = event_table(*events)
        got = sequence_adjacency(table, location_ids, groups, n_locations).values.toarray()
        want = np.array(
            brute_force_sequence(events, location_ids, groups, n_locations), dtype=float
        )
        assert np.array_equal(got, want)

        moves = 0
        for group in groups:
            ordered = sorted(
                (pair for pair in zip(events, location_ids) if pair[0].group_id == group),
                key=lambda pair: (pair[0].event_date, pair[0].source_row),
            )
            moves += sum(1 for (_, a), (_, b) in zip(ordered, ordered[1:]) if a != b)
        assert got.sum() == moves
    assert time.monotonic() - started < 5.0


def _mean_copy_distance(emb, a, b):
    # Rows i and j of one layer copy are the points of locations i and j.
    ids = emb.location_ids()
    points_a, points_b = emb.coordinates[ids == a], emb.coordinates[ids == b]
    assert len(points_a) == len(points_b) == 6
    return float(np.mean(np.linalg.norm(points_a - points_b, axis=1)))


def test_c10_habitual_pair_sits_closer_than_matched_control():
    locations = [
        make_location(0.0, 0.0, "Mali", "m0"),
        make_location(0.0, 1.0, "Niger", "n0"),
        make_location(0.0, 10.0, "Mali", "m1"),
        make_location(0.0, 11.0, "Niger", "n1"),
    ]
    cg = CountryBorderGraph.from_pairs([("Mali", "Niger")])
    hops = crossings_matrix(locations, cg)
    # matched control: same geodesic gap, same single border
    d = distance_matrix(locations).values
    assert abs(d[0, 1] - d[2, 3]) <= 1e-9
    assert hops[0, 1] == hops[2, 3] == 1

    base = date(2024, 1, 1).toordinal()
    events = [
        make_event(row, group="G", when=date.fromordinal(base + row - 1))
        for row in range(1, 34)
    ]
    ids = [(row + 1) % 2 for row in range(1, 34)]
    seq = sequence_adjacency(event_table(*events), ids, ["G"], 4)
    assert seq.values[0, 1] == 16.0 and seq.values[1, 0] == 16.0

    w_border = border_permeability_matrix(hops, 0.95)
    w_dist = invert_distances(distance_matrix(locations))
    system = build_three_layer(w_border, w_dist, seq)
    emb = embed(system.assembled, 2, layout=system.layout)

    habitual = _mean_copy_distance(emb, 0, 1)
    control = _mean_copy_distance(emb, 2, 3)
    assert habitual < control


def test_c11_reference_dataset_totals_and_extent():
    source = os.environ.get(ACLED_ENV)
    if not source or not Path(source).is_file():
        pytest.skip(f"set {ACLED_ENV} to the licensed 1997-2015 events CSV to run this check")
    with open(source, encoding="utf-8", newline="") as fh:
        events, _ = parse_events(fh)
    categories = DEFAULT_CATEGORIES + ("Riots/Protests",)
    violent = filter_violent(events, categories)
    locations, mapping = build_locations(violent)
    stats = summarize(violent, locations, mapping)
    assert stats.totals.events == 29272
    assert stats.totals.groups == 921
    assert stats.totals.locations == 1831
    widest = float(distance_matrix(locations).values.max())
    assert 4900.0 < widest < 5000.0


def test_c12_manifest_reruns_are_byte_identical(fixture_run, tmp_path, capsys):
    seed_dir = tmp_path / "seed"
    rc = main(
        [
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(seed_dir),
            "--override",
            "pipeline=two_layer",
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
        ]
    )
    assert rc == 0
    manifest = seed_dir / "manifest.json"
    assert json.loads(manifest.read_text())["_meta"]["command"] == "embed"

    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["embed", "--config", str(manifest), "--out", str(first)]) == 0
    assert main(["embed", "--config", str(manifest), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in (
        "embedding.csv",
        "eigenvalues.csv",
        "displacement.csv",
        "rejections.csv",
        "manifest.json",
    ):
        assert (first / name).read_bytes() == (second / name).read_bytes()
