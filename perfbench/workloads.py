"""Workload definitions and the seeded synthetic event-log generator.

Every workload runs the real `permap` CLI on a generated events CSV laid
over the packaged 21-country border list. The generator is driven only by
the seed, so one seed always yields byte-identical inputs; the program
sees nothing but the written CSV and config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

# Rough bounding boxes (lat_min, lat_max, lon_min, lon_max) of the countries
# in the packaged border list. Points only need to land on the right side
# of the continent, not inside the exact frontier.
COUNTRY_BOXES = {
    "Algeria": (22.0, 36.0, -6.0, 9.0),
    "Benin": (6.5, 12.0, 1.0, 3.5),
    "Burkina Faso": (10.0, 15.0, -5.0, 2.0),
    "Cameroon": (2.0, 13.0, 9.0, 16.0),
    "Chad": (8.0, 23.0, 14.0, 24.0),
    "Gambia": (13.1, 13.8, -16.8, -13.8),
    "Ghana": (5.0, 11.0, -3.0, 1.0),
    "Guinea": (7.5, 12.5, -15.0, -8.0),
    "Guinea-Bissau": (11.0, 12.6, -16.5, -13.7),
    "Ivory Coast": (4.5, 10.5, -8.0, -3.0),
    "Liberia": (4.5, 8.5, -11.5, -7.5),
    "Libya": (22.0, 32.0, 10.0, 24.0),
    "Mali": (11.0, 24.0, -11.0, 4.0),
    "Mauritania": (15.0, 26.0, -16.0, -5.0),
    "Morocco": (28.0, 35.0, -12.0, -2.0),
    "Niger": (12.0, 23.0, 1.0, 15.0),
    "Nigeria": (5.0, 13.5, 3.0, 14.0),
    "Senegal": (12.5, 16.5, -17.0, -11.5),
    "Sierra Leone": (7.0, 10.0, -13.2, -10.3),
    "Togo": (6.2, 11.0, 0.0, 1.7),
    "Tunisia": (31.0, 37.0, 8.0, 11.0),
}
COUNTRIES = tuple(sorted(COUNTRY_BOXES))

# The group selection and AQIM latitude split of configs/three_layer_sequence.json.
SELECTED_GROUPS = (
    "Boko Haram",
    "Al Qaeda",
    "Ansar Dine",
    "AQIM",
    "AQIM-south",
    "GIA",
    "GSL",
    "GSPC",
    "MUJAO",
    "Al Mourabitoune",
    "Those Who Sign in Blood",
)
SPLIT_RULES = (
    {
        "group_id": "AQIM",
        "attribute": "latitude",
        "comparator": "<",
        "threshold": 28.05,
        "virtual_suffix": "-south",
    },
)
# Actors the generator writes for the selected groups. "AQIM-south" only
# exists after the split rule rewrites southern AQIM events.
GENERATED_GROUPS = tuple(g for g in SELECTED_GROUPS if g != "AQIM-south")
# Countries each generated group is active in; AQIM spans both sides of
# the split latitude.
GROUP_HOMES = {
    "Boko Haram": ("Nigeria", "Cameroon", "Chad", "Niger"),
    "Al Qaeda": ("Algeria", "Libya", "Tunisia", "Mali"),
    "Ansar Dine": ("Mali", "Burkina Faso", "Niger"),
    "AQIM": ("Algeria", "Tunisia", "Morocco", "Mali", "Niger", "Mauritania"),
    "GIA": ("Algeria", "Morocco"),
    "GSL": ("Algeria", "Libya"),
    "GSPC": ("Algeria", "Mali", "Mauritania"),
    "MUJAO": ("Mali", "Niger", "Algeria"),
    "Al Mourabitoune": ("Mali", "Niger", "Libya", "Burkina Faso"),
    "Those Who Sign in Blood": ("Algeria", "Mali", "Niger"),
}
OTHER_ACTORS = tuple(f"Military Forces of {c}" for c in COUNTRIES) + (
    "Unidentified Armed Group",
    "Communal Militia",
    "Rioters",
    "Protesters",
)
VIOLENT_TYPES = (
    "Battle-No change of territory",
    "Battle-Government regains territory",
    "Violence against civilians",
    "Remote violence",
    "Riots and protests",
)
NONVIOLENT_TYPES = (
    "Strategic development",
    "Non-violent transfer of territory",
    "Headquarters or base established",
)
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)

HEADER = (
    "event_id_cnty,event_date,year,event_type,actor1,admin1,country,"
    "latitude,longitude,fatalities,notes"
)

# Shares of the generated rows.
FALLBACK_DATE_SHARE = 0.30  # written as "%d %B %Y" instead of ISO dates
MALFORMED_SHARE = 0.01  # rejected by the parser
NONVIOLENT_SHARE = 0.10  # parsed, then filtered out
OTHER_ACTOR_SHARE = 0.40  # actors outside the selected groups


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "embed" or "sweep"
    pipeline: str
    locations: int
    rows: int
    config: dict = field(default_factory=dict)
    # Inputs generated per seed. Runs cycle through them, so one run's
    # median spans more than one input's solver difficulty.
    inputs: int = 1

    @property
    def copies(self) -> int:
        """Embedded points per location."""
        return {"geo": 1, "two_layer": 2, "three_layer": 6}[self.pipeline]

    def sweep_values(self) -> tuple:
        if self.command != "sweep":
            return (None,)
        key = "sweep_costs_km" if "sweep_costs_km" in self.config else "sweep_probabilities"
        return tuple(self.config[key])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="geo_sweep",
            why="ingest-heavy: the CSV is parsed once per swept cost and n stays on the dense eigh path",
            command="sweep",
            pipeline="geo",
            locations=1500,
            rows=100_000,
            config={
                "pipeline": "geo",
                "border_model": {"kind": "linear", "cost_km": 100.0},
                "k": 2,
                "sweep_costs_km": [0.0, 50.0, 100.0, 500.0],
            },
        ),
        Workload(
            name="two_layer_sweep",
            why="solver-heavy: a dense-assembled 2n system goes through the shift-invert eigsh path",
            command="sweep",
            pipeline="two_layer",
            locations=1500,
            rows=30_000,
            config={
                "pipeline": "two_layer",
                "border_model": {"kind": "permeability", "p": 0.95},
                "k": 2,
                "sweep_probabilities": [1.0, 0.95, 0.8, 0.5],
            },
        ),
        Workload(
            name="three_layer_embed",
            why="one cell: sequence layer, sparse 6n assembly and a shift-invert solve with a narrow eigengap",
            command="embed",
            pipeline="three_layer",
            locations=800,
            rows=40_000,
            config={
                "pipeline": "three_layer",
                "border_model": {"kind": "permeability", "p": 0.95},
                "k": 2,
                "groups": list(SELECTED_GROUPS),
                "split_rules": [dict(r) for r in SPLIT_RULES],
            },
            inputs=3,
        ),
    )
}


@dataclass(frozen=True)
class GeneratedInput:
    """The written config (naming the events CSV beside it) and what the generator knows."""

    config_json: Path
    properties: dict


def _format_date(day: date, fallback: bool) -> str:
    if fallback:
        return f"{day.day:02d} {MONTHS[day.month - 1]} {day.year}"
    return day.isoformat()


def _malformed(kind: int, cells: list) -> list:
    """Damage one row so the parser must reject it."""
    if kind == 0:
        cells[1] = "31/02/2011"  # matches %d/%m/%Y but is not a real day
    elif kind == 1:
        cells[4] = " "
    elif kind == 2:
        cells[7] = "n/a"
    elif kind == 3:
        cells[8] = "200.5"
    elif kind == 4:
        cells[9] = "-3"
    else:
        cells = cells[:5]
    return cells


def _places(rng, n: int):
    """n distinct sites: (country, admin1, lat text, lon text)."""
    seen = set()
    out = []
    while len(out) < n:
        country = COUNTRIES[int(rng.integers(len(COUNTRIES)))]
        lat0, lat1, lon0, lon1 = COUNTRY_BOXES[country]
        lat = round(float(rng.uniform(lat0, lat1)), 4)
        lon = round(float(rng.uniform(lon0, lon1)), 4)
        admin = f"{country} {1 + int((lat - lat0) * 4 // (lat1 - lat0 + 1e-9))}"
        key = (country, admin, lat, lon)
        if key in seen:
            continue
        seen.add(key)
        out.append((country, admin, f"{lat:.4f}", f"{lon:.4f}"))
    return out


def generate(workload: Workload, seed: int, part: int, out_dir: Path) -> GeneratedInput:
    """Write the events CSV and config of one of a workload's inputs for a seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name), part])
    places = _places(rng, workload.locations)
    homes = {
        group: [i for i, place in enumerate(places) if place[0] in countries]
        for group, countries in GROUP_HOMES.items()
    }

    n_rows = workload.rows
    n_locs = len(places)
    # Every location gets one guaranteed valid violent row so it survives
    # filtering; the other rows fall on random locations.
    kind = np.zeros(n_rows, dtype=int)  # 0 violent, 1 non-violent, 2 malformed
    special = rng.permutation(np.arange(n_locs, n_rows))
    n_bad = int(round(MALFORMED_SHARE * n_rows))
    n_quiet = int(round(NONVIOLENT_SHARE * n_rows))
    kind[special[:n_bad]] = 2
    kind[special[n_bad : n_bad + n_quiet]] = 1

    first_day = date(1997, 1, 1)
    span_days = (date(2015, 12, 31) - first_day).days
    rows = []
    selected_rows = 0
    for r in range(n_rows):
        if rng.random() < OTHER_ACTOR_SHARE:
            actor = OTHER_ACTORS[int(rng.integers(len(OTHER_ACTORS)))]
            loc = r if r < n_locs else int(rng.integers(n_locs))
        else:
            actor = GENERATED_GROUPS[int(rng.integers(len(GENERATED_GROUPS)))]
            if r < n_locs:
                loc = r
            else:
                home = homes[actor]
                loc = home[int(rng.integers(len(home)))] if home else int(rng.integers(n_locs))
            selected_rows += 1
        country, admin, lat, lon = places[loc]
        day = first_day + timedelta(days=int(rng.integers(span_days)))
        if kind[r] == 1:
            event_type = NONVIOLENT_TYPES[int(rng.integers(len(NONVIOLENT_TYPES)))]
        else:
            event_type = VIOLENT_TYPES[int(rng.integers(len(VIOLENT_TYPES)))]
        fatalities = "" if rng.random() < 0.05 else str(int(rng.poisson(2.0)))
        notes = f'"Attack near site {loc}, {fatalities or "unknown"} reported"'
        cells = [
            f"EV{r:07d}",
            _format_date(day, rng.random() < FALLBACK_DATE_SHARE),
            str(day.year),
            event_type,
            actor,
            admin,
            country,
            lat,
            lon,
            fatalities,
            notes,
        ]
        if kind[r] == 2:
            cells = _malformed(int(rng.integers(6)), cells)
        rows.append(",".join(cells))

    order = rng.permutation(n_rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    events = out_dir / "events.csv"
    with open(events, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        for r in order:
            fh.write(rows[r] + "\n")

    config = {"events_csv": "events.csv", **workload.config}
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    properties = {
        "rows": n_rows,
        "locations": n_locs,
        "rows_malformed": n_bad,
        "rows_nonviolent": n_quiet,
        "rows_violent": n_rows - n_bad - n_quiet,
        "selected_group_share": selected_rows / n_rows,
        "events_per_location": n_rows / n_locs,
        "system_n": n_locs * workload.copies,
    }
    return GeneratedInput(config_path, properties)
