"""Deterministic record transforms: distance, clustering, day bucketing,
cross-device co-location, CSV reduction and offline place resolution.
Everything here is pure computation over parsed records; no network access
anywhere (place names come from a local gazetteer file).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Optional, Sequence, TypeVar

from .model import LocationRecord, MessageRecord, format_offset

__all__ = [
    "EARTH_RADIUS_M",
    "DEFAULT_CLUSTER_RADIUS_M",
    "DEFAULT_COLOCATION_RADIUS_M",
    "DEFAULT_COLOCATION_WINDOW",
    "LocationCluster",
    "MeetingCandidate",
    "GazetteerEntry",
    "GazetteerError",
    "haversine_m",
    "group_locations_spatial",
    "group_locations_chronological",
    "bucket_by_day",
    "detect_colocations",
    "reduce_to_csv",
    "render_padded_table",
    "load_gazetteer",
    "resolve_place",
]

EARTH_RADIUS_M = 6371000.0
DEFAULT_CLUSTER_RADIUS_M = 200.0
DEFAULT_COLOCATION_RADIUS_M = 200.0
DEFAULT_COLOCATION_WINDOW = timedelta(minutes=60)

R = TypeVar("R", LocationRecord, MessageRecord)


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a sphere of radius 6371000 m."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    # min(nan, 1.0) is nan where min(1.0, nan) is 1.0: a NaN coordinate is
    # at a NaN distance, within no radius, not at the antipode
    return 2 * EARTH_RADIUS_M * math.asin(min(math.sqrt(a), 1.0))


@dataclass(frozen=True)
class LocationCluster:
    member_indices: tuple[int, ...]  # indices into the input sequence
    centroid: tuple[float, float]  # (lat, lon), arithmetic mean
    time_span: tuple[datetime, datetime]  # earliest, latest member instant
    label: str

    def __len__(self) -> int:
        return len(self.member_indices)


def _format_centroid(lat: float, lon: float) -> str:
    return f"({lat:.6f}, {lon:.6f})"


def _make_cluster(records: Sequence[LocationRecord], indices: list[int]) -> LocationCluster:
    members = sorted(indices)
    lat = sum(records[i].latitude for i in members) / len(members)
    lon = sum(records[i].longitude for i in members) / len(members)
    instants = [records[i].timestamp for i in members]
    named = [records[i].related_location for i in members if records[i].related_location]
    if named:
        counts = Counter(named)
        best = max(counts.values())
        # majority name; ties go to the earliest appearance among members
        label = next(name for name in named if counts[name] == best)
    else:
        label = _format_centroid(lat, lon)
    return LocationCluster(
        member_indices=tuple(members),
        centroid=(lat, lon),
        time_span=(min(instants), max(instants)),
        label=label,
    )


def _order_clusters(records: Sequence[LocationRecord], groups: list[list[int]]) -> list[LocationCluster]:
    clusters = [_make_cluster(records, g) for g in groups]
    clusters.sort(key=lambda c: (c.time_span[0], c.member_indices[0]))
    return clusters


# Cells of the spatial grid are cubes in 3-D unit-sphere coordinates.  Their
# edge exceeds the chord of the clustering radius by this much, so that
# rounding can never put two points within the radius more than one cell
# apart; it is about 6 mm on the Earth, far above the rounding error.
_CELL_MARGIN = 1e-9
_NEIGHBOUR_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]


def _grid_cell(lat: float, lon: float, edge: float) -> Optional[tuple[int, int, int]]:
    """The grid cell of a point on the unit sphere; None for a non-finite
    coordinate, which is within no radius of anything."""
    if not (math.isfinite(lat) and math.isfinite(lon)):
        return None
    phi, lam = math.radians(lat), math.radians(lon)
    c = math.cos(phi)
    return (
        math.floor(c * math.cos(lam) / edge),
        math.floor(c * math.sin(lam) / edge),
        math.floor(math.sin(phi) / edge),
    )


def group_locations_spatial(
    records: Sequence[LocationRecord], radius_m: float = DEFAULT_CLUSTER_RADIUS_M
) -> list[LocationCluster]:
    """Single-linkage clustering: records chain together whenever some pair
    sits within radius_m.  Every record lands in exactly one cluster.

    Exact fixed-radius neighbour search on a grid (Bentley, Stanat and
    Williams, 1977): points are bucketed by their position on the unit
    sphere in cubes at least as wide as the chord of radius_m, so only
    pairs in the same or adjacent cubes can be within radius_m, and
    haversine_m decides each of those.  Working in 3-D leaves no pole or
    antimeridian to special-case.
    """
    n = len(records)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if radius_m >= 0:  # a negative or NaN radius joins nothing
        half_angle = min(radius_m, math.pi * EARTH_RADIUS_M) / (2 * EARTH_RADIUS_M)
        edge = min(2.0, 2 * math.sin(half_angle) + _CELL_MARGIN)
        cells: dict[tuple[int, int, int], list[int]] = {}
        for i, rec in enumerate(records):
            cell = _grid_cell(rec.latitude, rec.longitude, edge)
            if cell is not None:
                cells.setdefault(cell, []).append(i)

        for (cx, cy, cz), members in cells.items():
            for dx, dy, dz in _NEIGHBOUR_OFFSETS:
                others = cells.get((cx + dx, cy + dy, cz + dz))
                if others is None:
                    continue
                for i in members:
                    root_i = find(i)
                    for j in others:
                        if i >= j:
                            continue
                        root_j = find(j)
                        # a pair already chained together needs no distance
                        if root_i != root_j and haversine_m(
                            records[i].latitude, records[i].longitude,
                            records[j].latitude, records[j].longitude,
                        ) <= radius_m:
                            parent[root_i] = root_j
                            root_i = root_j

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return _order_clusters(records, list(groups.values()))


def group_locations_chronological(
    records: Sequence[LocationRecord], max_gap: timedelta
) -> list[LocationCluster]:
    """Split the chronologically sorted records wherever the gap between
    consecutive instants exceeds max_gap.  Ties keep input order."""
    if not records:
        return []
    order = sorted(range(len(records)), key=lambda i: (records[i].timestamp, i))
    groups: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        gap = records[cur].timestamp - records[prev].timestamp
        if gap > max_gap:
            groups.append([cur])
        else:
            groups[-1].append(cur)
    return _order_clusters(records, groups)


def bucket_by_day(
    records: Sequence[R], display_offset: timezone
) -> dict[date, list[R]]:
    """Group records by calendar day after converting to display_offset.
    Days ascend; within a day records sort by instant, ties in input order."""
    order = sorted(range(len(records)), key=lambda i: (records[i].timestamp, i))
    buckets: dict[date, list[R]] = {}
    for i in order:
        local = records[i].timestamp.astimezone(display_offset)
        buckets.setdefault(local.date(), []).append(records[i])
    return dict(sorted(buckets.items()))


@dataclass(frozen=True)
class MeetingCandidate:
    index_a: int
    index_b: int
    distance_m: float
    time_gap_s: float  # absolute difference between the two instants, in seconds


def detect_colocations(
    records_a: Sequence[LocationRecord],
    records_b: Sequence[LocationRecord],
    radius_m: float = DEFAULT_COLOCATION_RADIUS_M,
    window: timedelta = DEFAULT_COLOCATION_WINDOW,
) -> list[MeetingCandidate]:
    """Every cross-device pair within radius_m and window of each other.

    Exact and exhaustive; candidates are evidence pointers for an examiner,
    sorted by (instant of a, index of a, instant of b, index of b).
    """
    pairs: list[tuple[datetime, int, datetime, int, MeetingCandidate]] = []
    for i, ra in enumerate(records_a):
        for j, rb in enumerate(records_b):
            gap = abs(ra.timestamp - rb.timestamp)
            if gap > window:
                continue
            d = haversine_m(ra.latitude, ra.longitude, rb.latitude, rb.longitude)
            if d <= radius_m:
                candidate = MeetingCandidate(i, j, d, gap.total_seconds())
                pairs.append((ra.timestamp, i, rb.timestamp, j, candidate))
    pairs.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    return [p[4] for p in pairs]


# ---------------------------------------------------------------------------
# reduced CSV

def reduce_to_csv(messages: Sequence[MessageRecord]) -> str:
    """Render messages as the reduced ' ; '-delimited table: From, Body,
    Timestamp.

    Multi-line bodies spill onto continuation rows whose other cells stay
    empty; parse_csv_messages folds them back, so senders, bodies and
    instants round-trip.  Cells must not themselves contain the ' ; '
    delimiter.
    """
    rows: list[list[str]] = [["From", "Body", "Timestamp: Time"]]
    for msg in messages:
        first, *more = msg.body.split("\n")
        sender = msg.sender.as_text() if msg.sender else ""
        ts = msg.timestamp
        rows.append([sender, first, f"{ts:%d.%m.%Y %H:%M:%S}({format_offset(ts)})"])
        rows.extend(["", extra, ""] for extra in more)
    return render_padded_table(rows, " ; ")


def render_padded_table(rows: Sequence[Sequence[str]], delimiter: str) -> str:
    """One line per row: every column padded to its widest cell, the cells
    joined by delimiter and the line end stripped."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join(
        delimiter.join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


# ---------------------------------------------------------------------------
# offline gazetteer

class GazetteerError(ValueError):
    """A gazetteer line did not parse."""


@dataclass(frozen=True)
class GazetteerEntry:
    latitude: float
    longitude: float
    radius_m: float
    place: str


def load_gazetteer(text: str) -> list[GazetteerEntry]:
    """Parse 'lat ; lon ; radius_m ; place' lines.  Blank lines and lines
    starting with '#' are skipped; anything else malformed raises."""
    entries: list[GazetteerEntry] = []
    for n, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in re.split(r"\s*;\s*", stripped)]
        if len(cells) != 4 or not cells[3]:
            raise GazetteerError(f"line {n}: expected 'lat ; lon ; radius_m ; place'")
        try:
            lat, lon, radius = float(cells[0]), float(cells[1]), float(cells[2])
        except ValueError as exc:
            raise GazetteerError(f"line {n}: {exc}") from exc
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0) or radius < 0:
            raise GazetteerError(f"line {n}: coordinates or radius out of range")
        entries.append(GazetteerEntry(lat, lon, radius, cells[3]))
    return entries


def resolve_place(
    latitude: float, longitude: float, gazetteer: Sequence[GazetteerEntry]
) -> Optional[str]:
    """Nearest gazetteer entry whose radius covers the point; file order
    breaks exact distance ties.  None when nothing covers it."""
    best: Optional[tuple[float, int]] = None
    for i, entry in enumerate(gazetteer):
        d = haversine_m(latitude, longitude, entry.latitude, entry.longitude)
        if d <= entry.radius_m and (best is None or d < best[0]):
            best = (d, i)
    return gazetteer[best[1]].place if best else None
