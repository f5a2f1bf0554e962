"""Directed attack-sequence adjacency built from per-group chronology.

Each selected group's events are ordered by date (ties fall back to input
file order) and every consecutive pair at distinct locations adds one unit
of directed weight from the earlier location to the later one. The
counts are held as CSR, since groups move between few of the n^2
location pairs. Optional split rules partition a group into virtual
sub-groups by a coordinate half-plane before sequencing.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from .errors import ConfigError
from .graphs import WeightMatrix
from .ingest import EventTable

_BOUNDS = {"latitude": (-90.0, 90.0), "longitude": (-180.0, 180.0)}
_COMPARATORS = ("<", ">=")


@dataclass(frozen=True)
class GroupSplitRule:
    """Rewrites a group id when an event falls in a coordinate half-plane."""

    group_id: str
    attribute: str
    comparator: str
    threshold: float
    virtual_suffix: str

    def __post_init__(self):
        if self.attribute not in _BOUNDS:
            raise ConfigError(
                f"split rule attribute must be one of {sorted(_BOUNDS)}, got {self.attribute!r}"
            )
        if self.comparator not in _COMPARATORS:
            raise ConfigError(
                f"split rule comparator must be one of {_COMPARATORS}, got {self.comparator!r}"
            )
        object.__setattr__(self, "threshold", float(self.threshold))
        lo, hi = _BOUNDS[self.attribute]
        if not lo <= self.threshold <= hi:
            raise ConfigError(
                f"split rule threshold {self.threshold} outside [{lo}, {hi}] for {self.attribute}"
            )
        if not self.virtual_suffix:
            raise ConfigError("split rule virtual_suffix must be non-empty")

    def matches(self, event):
        """Whether the event lies in the half-plane; arrays of coordinates give a mask."""
        value = getattr(event, self.attribute)
        if self.comparator == "<":
            return value < self.threshold
        return value >= self.threshold


def split_groups(events: EventTable, rules) -> EventTable:
    """Apply split rules, returning events with rewritten group ids.

    Event order is preserved. The first rule whose group and predicate both
    match wins. Rules naming groups absent from the data only warn. Each
    rule is tested once per distinct site.
    """
    present = events.group_codes()
    names = list(events.groups)
    latitude, longitude = np.array([s[:2] for s in events.sites], dtype=float).reshape(-1, 2).T
    sites = SimpleNamespace(latitude=latitude, longitude=longitude)
    rows = events.rows.copy()
    unsplit = np.ones(len(events), dtype=bool)
    for rule in rules:
        if rule.group_id not in present:
            warnings.warn(f"split rule references unknown group {rule.group_id!r}", stacklevel=2)
            continue
        hit = events.rows["group"] == present[rule.group_id]
        hit &= unsplit & rule.matches(sites)[events.rows["site"]]
        virtual = rule.group_id + rule.virtual_suffix
        if virtual not in names:
            names.append(virtual)
        rows["group"][hit] = names.index(virtual)
        unsplit &= ~hit
    return replace(events, rows=rows, groups=tuple(names))


def sequence_adjacency(events: EventTable, location_ids, groups, n_locations: int) -> WeightMatrix:
    """Count consecutive same-group attacks between ordered location pairs.

    `events` is a table as `ingest.parse_events` returns it, and
    `location_ids` holds each event's location id in [0, n_locations),
    in table order, as `ingest.build_locations` returns them.
    Consecutive attacks at the same location contribute nothing. Counts
    accumulate over all selected groups into one directed layer, held as
    canonical CSR (sorted indices, repeated moves summed); no n x n array
    is made, and no Python loop runs over the events. A mapping from each
    event's source_row to its id is still read, one lookup per event.
    Raises ValueError for a group listed more than once, for ids that are
    not one per event, for an id outside [0, n_locations) (naming the
    event's line), and for an event whose line a mapping lacks.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("sequence_adjacency needs at least one selected group")
    repeated = [g for i, g in enumerate(groups) if g in groups[:i]]
    if repeated:
        raise ValueError(f"group {repeated[0]!r} is listed more than once")
    if n_locations < 1:
        raise ValueError(f"n_locations must be positive, got {n_locations}")
    lines = events.rows["source_row"]
    # perfbench/check.py still builds its reference with line -> id.
    if isinstance(location_ids, Mapping):
        try:
            location_ids = [location_ids[line] for line in lines.tolist()]
        except KeyError as exc:
            raise ValueError(f"event at line {exc.args[0]} has no location") from None
    ids = np.asarray(location_ids, dtype=np.intp)
    if ids.shape != (len(events),):
        raise ValueError(f"got location ids of shape {ids.shape} for {len(events)} events")
    outside = (ids < 0) | (ids >= n_locations)
    if outside.any():
        first = int(np.flatnonzero(outside)[0])
        raise ValueError(
            f"event at line {lines[first]} has location {ids[first]}, outside [0, {n_locations})"
        )

    present = events.group_codes()
    selected = np.zeros(len(events.groups), dtype=bool)
    for group in groups:
        if group in present:
            selected[present[group]] = True
        else:
            warnings.warn(f"selected group {group!r} has no events", stacklevel=2)
    # The selected events by group, each group's in ascending date order
    # with ties by source row; a move joins two neighbours of one group.
    group = events.rows["group"]
    mine = np.flatnonzero(selected[group])
    walk = mine[np.lexsort((lines[mine], events.rows["day"][mine], group[mine]))]
    src, dst = ids[walk[:-1]], ids[walk[1:]]
    moves = (group[walk[:-1]] == group[walk[1:]]) & (src != dst)
    weights = np.ones(np.count_nonzero(moves))
    counts = sparse.csr_matrix((weights, (src[moves], dst[moves])), shape=(n_locations,) * 2)
    return WeightMatrix(counts)
