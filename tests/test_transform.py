"""Geometry, clustering, co-location, CSV reduction, gazetteer."""

from __future__ import annotations

import math
import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from casedraft.ingest import (
    parse_csv_messages,
    parse_lablog_locations,
    parse_lablog_messages,
    parse_tool_report_locations,
)
from casedraft.model import LocationRecord, MessageRecord
from casedraft.transform import (
    DEFAULT_CLUSTER_RADIUS_M,
    DEFAULT_COLOCATION_RADIUS_M,
    DEFAULT_COLOCATION_WINDOW,
    EARTH_RADIUS_M,
    GazetteerError,
    bucket_by_day,
    detect_colocations,
    group_locations_chronological,
    group_locations_spatial,
    haversine_m,
    load_gazetteer,
    reduce_to_csv,
    render_padded_table,
    resolve_place,
)

from conftest import read_fixture

UTC = timezone.utc
MINUS5 = timezone(timedelta(hours=-5))


def _loc(lat: float, lon: float, minute: int = 0, **kw) -> LocationRecord:
    return LocationRecord(
        name=f"r{minute}.jpg",
        timestamp=datetime(2019, 2, 14, 14, minute % 60, tzinfo=UTC),
        category="c",
        latitude=lat,
        longitude=lon,
        **kw,
    )


# --- haversine ---------------------------------------------------------------

def test_haversine_frozen_golden_pair():
    # the two distinct points of the golden lab-log excerpt, full precision
    d = haversine_m(38.9075, -77.0727777777778, 38.9069444444444, -77.0725)
    assert d == pytest.approx(66.28613745030525, abs=1e-9)


def test_haversine_frozen_tool_report_pair():
    # same points at the tool report's six-decimal precision
    d = haversine_m(38.9075, -77.072778, 38.906944, -77.0725)
    assert d == pytest.approx(66.33916638177945, abs=1e-9)


def test_haversine_zero_distance():
    assert haversine_m(45.0, 7.0, 45.0, 7.0) == 0.0


def test_haversine_antipodal_is_half_circumference():
    assert haversine_m(0.0, 0.0, 0.0, 180.0) == pytest.approx(
        math.pi * EARTH_RADIUS_M, abs=1e-6
    )


def test_haversine_of_a_nan_coordinate_is_nan():
    # not half the circumference, as if the point were antipodal
    assert math.isnan(haversine_m(math.nan, -77.0, 38.9, -77.0))
    assert math.isnan(haversine_m(38.9, -77.0, 38.9, math.nan))


def _law_of_cosines_m(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(min(1.0, max(-1.0, c)))


def test_haversine_matches_law_of_cosines_oracle():
    rng = random.Random(20190214)
    for _ in range(1000):
        lat1, lat2 = rng.uniform(-89, 89), rng.uniform(-89, 89)
        lon1, lon2 = rng.uniform(-180, 180), rng.uniform(-180, 180)
        assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(
            _law_of_cosines_m(lat1, lon1, lat2, lon2), abs=0.5
        )


# --- spatial clustering ------------------------------------------------------

def test_golden_locations_form_one_cluster():
    records, _ = parse_lablog_locations(read_fixture("lablog_locations.txt"))
    clusters = group_locations_spatial(records)
    assert len(clusters) == 1
    cluster = clusters[0]
    assert cluster.member_indices == (0, 1, 2)
    assert cluster.centroid[0] == pytest.approx(38.907314814814804, abs=1e-12)
    assert cluster.centroid[1] == pytest.approx(-77.07268518518521, abs=1e-12)
    # majority related location wins the label
    assert cluster.label == "Healy Hall, 37th St NW, Washington, District of Columbia"
    assert cluster.time_span == (
        datetime(2019, 2, 14, 14, 29, 1, tzinfo=UTC),
        datetime(2019, 2, 14, 14, 33, 44, tzinfo=UTC),
    )


def test_tool_report_cluster_centroid_frozen():
    records, _ = parse_tool_report_locations(read_fixture("tool_report_locations.txt"))
    clusters = group_locations_spatial(records)
    assert len(clusters) == 1
    assert clusters[0].centroid[0] == pytest.approx(38.90731466666667, abs=1e-12)
    assert clusters[0].centroid[1] == pytest.approx(-77.07268533333333, abs=1e-12)
    # no related locations: the label falls back to the centroid text
    assert clusters[0].label.startswith("(38.907315")


def test_single_linkage_chains_across_radius():
    # A-B and B-C are inside the radius, A-C is not; all three must chain
    a = _loc(38.9000, -77.0000, minute=1)
    b = _loc(38.9013, -77.0000, minute=2)  # ~145 m north of a
    c = _loc(38.9026, -77.0000, minute=3)  # ~145 m north of b, ~290 m from a
    assert haversine_m(a.latitude, a.longitude, c.latitude, c.longitude) > 200.0
    clusters = group_locations_spatial([a, b, c], radius_m=200.0)
    assert len(clusters) == 1


def test_far_apart_records_stay_separate():
    clusters = group_locations_spatial(
        [_loc(38.9, -77.0, minute=1), _loc(48.9, -7.0, minute=2)]
    )
    assert len(clusters) == 2
    # clusters come out ordered by first instant
    assert clusters[0].time_span[0] <= clusters[1].time_span[0]


def _brute_force_components(records, radius_m):
    n = len(records)
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            d = haversine_m(
                records[i].latitude, records[i].longitude,
                records[j].latitude, records[j].longitude,
            )
            if d <= radius_m:
                adj[i].add(j)
                adj[j].add(i)
    seen, components = set(), []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        components.append(frozenset(comp))
    return set(components)


def test_spatial_clustering_matches_connected_components_oracle():
    rng = random.Random(7)
    for _ in range(50):
        records = [
            _loc(38.9 + rng.uniform(-0.01, 0.01), -77.07 + rng.uniform(-0.01, 0.01), minute=k)
            for k in range(rng.randint(0, 20))
        ]
        radius = rng.choice([50.0, 200.0, 500.0])
        got = {frozenset(c.member_indices) for c in group_locations_spatial(records, radius)}
        assert got == _brute_force_components(records, radius)


def _assert_matches_oracle(records, radius):
    got = {frozenset(c.member_indices) for c in group_locations_spatial(records, radius)}
    assert got == _brute_force_components(records, radius), radius


def test_spatial_clustering_oracle_near_the_poles():
    rng = random.Random(11)
    for pole in (90.0, -90.0):
        for _ in range(20):
            records = [
                _loc(pole - math.copysign(rng.uniform(0.0, 0.006), pole), rng.uniform(-180.0, 180.0), minute=k)
                for k in range(rng.randint(2, 15))
            ]
            _assert_matches_oracle(records, rng.choice([50.0, 200.0, 500.0, 1000.0]))


def test_spatial_clustering_oracle_across_the_antimeridian():
    rng = random.Random(13)
    for _ in range(40):
        lat = rng.choice([0.0, 38.9, -61.5, 84.0])
        records = [
            _loc(lat + rng.uniform(-0.002, 0.002), rng.choice([1, -1]) * (180.0 - rng.uniform(0.0, 0.004)), minute=k)
            for k in range(rng.randint(2, 15))
        ]
        _assert_matches_oracle(records, rng.choice([50.0, 200.0, 500.0]))
    # a pair 2 m apart whose longitudes read almost 360 degrees apart
    _assert_matches_oracle([_loc(0.0, 179.99999), _loc(0.0, -179.99999)], 5.0)
    assert len(group_locations_spatial([_loc(0.0, 179.99999), _loc(0.0, -179.99999)], 5.0)) == 1


def test_spatial_clustering_oracle_extreme_radii():
    rng = random.Random(17)
    spread = [
        _loc(math.degrees(math.asin(rng.uniform(-1.0, 1.0))), rng.uniform(-180.0, 180.0), minute=k)
        for k in range(12)
    ]
    antipodes = [_loc(10.0, 20.0), _loc(-10.0, -160.0), _loc(90.0, 0.0), _loc(-90.0, 0.0)]
    half_circumference = math.pi * EARTH_RADIUS_M
    for records in (spread, antipodes):
        for radius in (half_circumference, 2 * half_circumference, math.inf, 0.0, -1.0, -math.inf, math.nan):
            _assert_matches_oracle(records, radius)
    assert len(group_locations_spatial(spread, half_circumference)) == 1
    assert len(group_locations_spatial(spread, -1.0)) == len(spread)


def test_spatial_clustering_oracle_duplicates_and_tiny_inputs():
    assert group_locations_spatial([], 200.0) == []
    assert [c.member_indices for c in group_locations_spatial([_loc(38.9, -77.0)], 200.0)] == [(0,)]
    same = [_loc(38.9, -77.0, minute=k) for k in range(4)] + [_loc(38.95, -77.0, minute=9)] * 3
    for radius in (0.0, 1.0, 200.0):
        _assert_matches_oracle(same, radius)
    assert len(group_locations_spatial(same, 0.0)) == 2


def test_spatial_clustering_non_finite_coordinate_stays_single():
    records = [
        _loc(38.9, -77.0, minute=1),
        _loc(math.nan, -77.0, minute=2),
        _loc(38.9, math.nan, minute=3),
        _loc(38.9001, -77.0, minute=4),
    ]
    for radius in (0.0, 200.0, 1e6):
        _assert_matches_oracle(records, radius)
    # at every radius, half the circumference and beyond included, a point
    # that is nowhere stays alone (haversine_m puts it at a NaN distance),
    # and an infinite one (haversine_m raises) too
    records.append(_loc(math.inf, -77.0, minute=5))
    for radius in (200.0, math.pi * EARTH_RADIUS_M, math.inf):
        got = {c.member_indices for c in group_locations_spatial(records, radius)}
        assert got == {(0, 3), (1,), (2,), (4,)}


def test_spatial_clustering_distance_calls_grow_linearly(monkeypatch):
    # 2,000 fixes spread over a 10 km square: all pairs would be ~2 million
    # distance calls, the grid needs a few per fix
    from casedraft import transform

    rng = random.Random(19)
    records = [
        _loc(38.9 + rng.uniform(0.0, 0.09), -77.1 + rng.uniform(0.0, 0.115), minute=k)
        for k in range(2000)
    ]
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return haversine_m(*args)

    monkeypatch.setattr(transform, "haversine_m", counting)
    clusters = group_locations_spatial(records, DEFAULT_CLUSTER_RADIUS_M)
    assert sum(len(c) for c in clusters) == len(records)
    assert calls < 20 * len(records)


# --- chronological clustering and day buckets --------------------------------

def test_chronological_split_on_gap():
    records = [
        _loc(38.9, -77.0, minute=0),
        _loc(38.9, -77.0, minute=5),
        _loc(38.9, -77.0, minute=30),
    ]
    clusters = group_locations_chronological(records, max_gap=timedelta(minutes=10))
    assert [c.member_indices for c in clusters] == [(0, 1), (2,)]


def test_chronological_empty_input():
    assert group_locations_chronological([], max_gap=timedelta(minutes=10)) == []


def test_bucket_by_day_uses_display_offset():
    # 2019-02-05 00:30 UTC is still 2019-02-04 in UTC-5
    records = [
        MessageRecord(body="late", timestamp=datetime(2019, 2, 5, 0, 30, tzinfo=UTC)),
        MessageRecord(body="noon", timestamp=datetime(2019, 2, 5, 12, 0, tzinfo=UTC)),
    ]
    buckets = bucket_by_day(records, display_offset=MINUS5)
    assert list(buckets) == [date(2019, 2, 4), date(2019, 2, 5)]
    assert buckets[date(2019, 2, 4)][0].body == "late"


def test_golden_messages_bucket_to_one_day():
    records, _ = parse_lablog_messages(read_fixture("lablog_messages.txt"))
    buckets = bucket_by_day(records, display_offset=MINUS5)
    assert list(buckets) == [date(2019, 2, 5)]
    assert len(buckets[date(2019, 2, 5)]) == 3


# --- co-location -------------------------------------------------------------

def test_colocation_simple_hit_and_miss():
    a = [_loc(38.9075, -77.07277, minute=0)]
    b_near = [_loc(38.9076, -77.07277, minute=30)]
    b_far = [_loc(39.5, -77.07277, minute=30)]
    b_late = [_loc(38.9076, -77.07277, minute=59)]
    hits = detect_colocations(a, b_near)
    assert len(hits) == 1
    assert hits[0].index_a == 0 and hits[0].index_b == 0
    assert hits[0].distance_m < 200.0
    assert hits[0].time_gap_s == 1800.0
    assert detect_colocations(a, b_far) == []
    # 59 minutes is inside the default 60-minute window
    assert len(detect_colocations(a, b_late)) == 1


def test_colocation_never_pairs_a_nan_fix():
    a = [_loc(math.nan, -77.0, minute=0)]
    b = [_loc(38.9, -77.0, minute=1)]
    assert detect_colocations(a, b, math.pi * EARTH_RADIUS_M) == []


def _brute_force_pairs(recs_a, recs_b, radius_m, window):
    out = []
    for i, ra in enumerate(recs_a):
        for j, rb in enumerate(recs_b):
            if abs(ra.timestamp - rb.timestamp) <= window and haversine_m(
                ra.latitude, ra.longitude, rb.latitude, rb.longitude
            ) <= radius_m:
                out.append((i, j))
    return sorted(out)


def test_colocation_matches_double_loop_oracle():
    rng = random.Random(99)
    for _ in range(50):
        def mk(n):
            return [
                _loc(
                    38.9 + rng.uniform(-0.005, 0.005),
                    -77.07 + rng.uniform(-0.005, 0.005),
                    minute=rng.randint(0, 59),
                )
                for _ in range(n)
            ]
        a, b = mk(rng.randint(0, 12)), mk(rng.randint(0, 12))
        got = sorted((m.index_a, m.index_b) for m in detect_colocations(a, b))
        assert got == _brute_force_pairs(
            a, b, DEFAULT_COLOCATION_RADIUS_M, DEFAULT_COLOCATION_WINDOW
        )


# --- CSV reduction -----------------------------------------------------------

def test_reduce_to_csv_round_trips_golden_messages():
    records, _ = parse_lablog_messages(read_fixture("lablog_messages.txt"))
    text = reduce_to_csv(records)
    again, diags = parse_csv_messages(text)
    assert [d for d in diags] == []
    assert [m.body for m in again] == [m.body for m in records]
    assert [m.timestamp for m in again] == [m.timestamp for m in records]
    assert [m.sender for m in again] == [m.sender for m in records]


def test_reduce_to_csv_spills_multiline_bodies():
    record = MessageRecord(
        body="first line\nsecond line",
        timestamp=datetime(2019, 2, 5, 7, 16, 4, tzinfo=MINUS5),
    )
    text = reduce_to_csv([record])
    lines = text.splitlines()
    assert len(lines) == 3  # header, row, continuation
    assert lines[2].startswith(" ") and "second line" in lines[2]
    again, _ = parse_csv_messages(text)
    assert again[0].body == "first line\nsecond line"


def test_reduce_to_csv_header_labels():
    text = reduce_to_csv([])
    assert text.splitlines()[0].split(" ; ") == ["From", "Body", "Timestamp: Time"]


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
                min_size=1,
                max_size=24,
            ),
            st.integers(min_value=0, max_value=10**9),
        ),
        max_size=8,
    )
)
def test_csv_round_trip_property(items):
    base = datetime(2019, 1, 1, tzinfo=UTC)
    records = [
        MessageRecord(body=body, timestamp=base + timedelta(seconds=offset))
        for body, offset in items
    ]
    again, _ = parse_csv_messages(reduce_to_csv(records))
    assert [m.body for m in again] == [m.body for m in records]
    assert [m.timestamp for m in again] == [m.timestamp for m in records]


def test_padded_table_pads_every_column_and_strips_line_ends():
    rows = [["a", "bb", ""], ["ccc", "d", ""]]
    assert render_padded_table(rows, " ; ") == "a   ; bb ;\nccc ; d  ;\n"


# --- gazetteer ----------------------------------------------------------------

def test_gazetteer_load_and_resolve():
    entries = load_gazetteer(read_fixture("gazetteer.txt"))
    assert len(entries) == 3
    assert resolve_place(38.9075, -77.0727777777778, entries) == "Healy Hall"
    assert resolve_place(28.5549, -81.3392, entries) == "Union Park"
    assert resolve_place(0.0, 0.0, entries) is None


def test_gazetteer_nearest_entry_wins():
    entries = load_gazetteer(
        "38.9075 ; -77.072778 ; 5000 ; Wide Area\n"
        "38.9069 ; -77.0725 ; 5000 ; Tight Spot\n"
    )
    assert resolve_place(38.9069, -77.0725, entries) == "Tight Spot"


def test_gazetteer_file_order_breaks_ties():
    entries = load_gazetteer(
        "10.0 ; 10.0 ; 1000 ; First\n"
        "10.0 ; 10.0 ; 1000 ; Second\n"
    )
    assert resolve_place(10.0, 10.0, entries) == "First"


def test_gazetteer_never_resolves_a_nan_point():
    entries = load_gazetteer("38.9 ; -77.0 ; 100000000 ; Everywhere\n")
    assert resolve_place(38.9, -77.0, entries) == "Everywhere"
    assert resolve_place(math.nan, -77.0, entries) is None


@pytest.mark.parametrize(
    "line",
    ["38.9 ; -77.0 ; 100", "x ; -77.0 ; 100 ; P", "38.9 ; -777.0 ; 100 ; P", "38.9 ; -77.0 ; -1 ; P"],
)
def test_gazetteer_malformed_line_raises(line):
    with pytest.raises(GazetteerError):
        load_gazetteer(line + "\n")
