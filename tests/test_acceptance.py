"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test exercises the public API end to end against the golden fixtures
and independent oracles; nothing here reaches into private helpers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone

import pytest

from casedraft import ingest, transform
from casedraft.cli import main
from casedraft.gateway import (
    BackendConfig,
    BackendKind,
    DropFacts,
    InjectCoordinate,
    InjectName,
    generate,
)
from casedraft.grounding import ClaimStatus, GroundingContext, score
from casedraft.ingest import Severity, SourceFormat
from casedraft.model import CaseBundle, LocationRecord, MessageRecord, ReportSectionKind
from casedraft.pipeline import iter_store, run_experiment
from casedraft.prompting import (
    Placement,
    PromptTopic,
    PromptVariant,
    build_matrix,
    build_prompt,
    render_input,
    request_sentence,
)

from conftest import DATA_DIR, read_fixture

UTC = timezone.utc
EARTH_RADIUS_M = 6371000.0

MOCK = BackendConfig(name="mock", kind=BackendKind.MOCK)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def errors_of(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


# --- 1: golden-parse fidelity ---------------------------------------------------

def test_criterion_1_golden_parse_fidelity():
    with criterion(1, "golden-parse fidelity"):
        started = time.perf_counter()
        tool_locs, d1 = ingest.parse_tool_report_locations(read_fixture("tool_report_locations.txt"))
        lab_locs, d2 = ingest.parse_lablog_locations(read_fixture("lablog_locations.txt"))
        tool_msgs, d3 = ingest.parse_tool_report_messages(read_fixture("tool_report_messages.txt"))
        lab_msgs, d4 = ingest.parse_lablog_messages(read_fixture("lablog_messages.txt"))
        csv_msgs, d5 = ingest.parse_csv_messages(read_fixture("csv_messages.txt"))
        profile_lab, d6 = ingest.parse_device_profile(read_fixture("device_lablog.txt"))
        profile_tool, d7 = ingest.parse_device_profile(read_fixture("device_toolreport.txt"))
        elapsed = time.perf_counter() - started

        assert len(tool_locs) == 3 and len(lab_locs) == 3
        assert len(tool_msgs) == 3 and len(lab_msgs) == 3 and len(csv_msgs) == 3

        # spot-check quoted field values
        assert tool_locs[0].name == "20190214_143344.jpg"
        assert tool_locs[0].latitude == pytest.approx(38.9075, abs=1e-9)
        assert [r.size_bytes for r in tool_locs] == [4894559, 4239509, 3756708]
        assert lab_locs[0].latitude == pytest.approx(38.9075, abs=1e-12)
        assert lab_locs[0].longitude == pytest.approx(-77.0727777777778, abs=1e-12)
        assert tool_msgs[1].sender.display_name == "Wonder Woman"
        assert csv_msgs[1].body.startswith("Han, Obi Wan,")

        assert profile_lab == profile_tool
        assert profile_lab.vendor == "Samsung"
        assert profile_lab.model_code == "SM-G925F"

        for diags in (d1, d2, d3, d4, d5, d6, d7):
            assert errors_of(diags) == []

        assert elapsed < 1.0, f"parsing took {elapsed:.3f}s"


# --- 2: cross-format equivalence -------------------------------------------------

def minute_utc(ts: datetime) -> datetime:
    return ts.astimezone(UTC).replace(second=0, microsecond=0)


def test_criterion_2_cross_format_equivalence():
    with criterion(2, "cross-format equivalence"):
        tool_msgs, _ = ingest.parse_tool_report_messages(read_fixture("tool_report_messages.txt"))
        lab_msgs, _ = ingest.parse_lablog_messages(read_fixture("lablog_messages.txt"))
        csv_msgs, _ = ingest.parse_csv_messages(read_fixture("csv_messages.txt"))

        def flat(body: str) -> str:
            # formats render line wraps differently; collapse to one space
            return " ".join(body.split())

        for other in (lab_msgs, csv_msgs):
            assert [flat(m.body) for m in other] == [flat(m.body) for m in tool_msgs]
            assert [minute_utc(m.timestamp) for m in other] == [
                minute_utc(m.timestamp) for m in tool_msgs
            ]
        # 12:16 UTC+0 and 07:16 UTC-5 are the same instant
        assert minute_utc(tool_msgs[0].timestamp) == datetime(2019, 2, 5, 12, 16, tzinfo=UTC)

        tool_locs, _ = ingest.parse_tool_report_locations(read_fixture("tool_report_locations.txt"))
        lab_locs, _ = ingest.parse_lablog_locations(read_fixture("lablog_locations.txt"))
        for a, b in zip(tool_locs, lab_locs):
            assert a.latitude == pytest.approx(b.latitude, abs=1e-4)
            assert a.longitude == pytest.approx(b.longitude, abs=1e-4)
            assert minute_utc(a.timestamp) == minute_utc(b.timestamp)


# --- 3: matrix replication ---------------------------------------------------------

INTRO_PHRASING_0 = (
    "Can you summarize the previous text and write the intro of a forensic "
    "report for me? I need important elements of the description, the mandate, "
    "the questions asked (all of them), and the investigator of the case!"
)


def test_criterion_3_matrix_replication(golden_bundle):
    with criterion(3, "matrix replication"):
        prompts = build_matrix(golden_bundle)
        assert len(prompts) == 36
        assert len({p.prompt_id for p in prompts}) == 36

        def count(section, topic=None):
            return sum(
                1
                for p in prompts
                if p.section is section and (topic is None or p.topic is topic)
            )

        assert count(ReportSectionKind.INTRODUCTION) == 4
        assert count(ReportSectionKind.ITEMS_RECEIVED) == 4
        assert count(ReportSectionKind.METHODOLOGY) == 4
        assert count(ReportSectionKind.RESULTS, PromptTopic.CONVERSATIONS) == 12
        assert count(ReportSectionKind.RESULTS, PromptTopic.LOCATIONS) == 12

        assert request_sentence(ReportSectionKind.INTRODUCTION, 0) == INTRO_PHRASING_0
        intro_zero = [
            p
            for p in prompts
            if p.section is ReportSectionKind.INTRODUCTION and p.phrasing_id == 0
        ]
        assert intro_zero and all(INTRO_PHRASING_0 in p.rendered_text for p in intro_zero)


# --- 4: transform oracles -------------------------------------------------------------

def law_of_cosines_m(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    cos_c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, cos_c)))


def random_records(rng, count, minutes_spread=600):
    records = []
    for i in range(count):
        records.append(
            LocationRecord(
                name=f"r{i}",
                timestamp=datetime(2019, 2, 5, tzinfo=UTC)
                + timedelta(minutes=rng.uniform(0, minutes_spread)),
                category="c",
                latitude=rng.uniform(38.900, 38.915),
                longitude=rng.uniform(-77.080, -77.065),
            )
        )
    return records


def brute_colocations(a, b, radius_m, window):
    hits = set()
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            close = transform.haversine_m(ra.latitude, ra.longitude, rb.latitude, rb.longitude) <= radius_m
            near = abs(ra.timestamp - rb.timestamp) <= window
            if close and near:
                hits.add((i, j))
    return hits


def brute_components(records, radius_m):
    n = len(records)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            d = transform.haversine_m(
                records[i].latitude, records[i].longitude,
                records[j].latitude, records[j].longitude,
            )
            if d <= radius_m:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def test_criterion_4_transform_oracles():
    with criterion(4, "transform oracles"):
        started = time.perf_counter()

        rng = random.Random(20190205)
        for _ in range(200):
            a = random_records(rng, rng.randint(0, 50))
            b = random_records(rng, rng.randint(0, 50))
            radius = rng.uniform(50, 800)
            window = timedelta(minutes=rng.uniform(5, 120))
            got = {
                (c.index_a, c.index_b)
                for c in transform.detect_colocations(a, b, radius, window)
            }
            assert got == brute_colocations(a, b, radius, window)

        for _ in range(60):
            records = random_records(rng, rng.randint(0, 60))
            radius = rng.uniform(50, 800)
            clusters = transform.group_locations_spatial(records, radius)
            got = {frozenset(c.member_indices) for c in clusters}
            assert got == brute_components(records, radius)

        for _ in range(1000):
            lat1, lat2 = rng.uniform(-89, 89), rng.uniform(-89, 89)
            lon1, lon2 = rng.uniform(-180, 180), rng.uniform(-180, 180)
            ours = transform.haversine_m(lat1, lon1, lat2, lon2)
            oracle = law_of_cosines_m(lat1, lon1, lat2, lon2)
            assert ours == pytest.approx(oracle, abs=0.5)

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle battery took {elapsed:.2f}s"


# --- 5: grounding soundness and sensitivity ---------------------------------------------

RENDER_COMBOS = [
    (ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, PromptTopic.GENERAL),
    (ReportSectionKind.ITEMS_RECEIVED, SourceFormat.MANDATE_TEXT, PromptTopic.GENERAL),
    (ReportSectionKind.METHODOLOGY, SourceFormat.LAB_LOG_TABLE, PromptTopic.GENERAL),
    (ReportSectionKind.RESULTS, SourceFormat.TOOL_REPORT_EXCERPT, PromptTopic.CONVERSATIONS),
    (ReportSectionKind.RESULTS, SourceFormat.TOOL_REPORT_EXCERPT, PromptTopic.LOCATIONS),
    (ReportSectionKind.RESULTS, SourceFormat.LAB_LOG_TABLE, PromptTopic.CONVERSATIONS),
    (ReportSectionKind.RESULTS, SourceFormat.LAB_LOG_TABLE, PromptTopic.LOCATIONS),
    (ReportSectionKind.RESULTS, SourceFormat.REDUCED_CSV, PromptTopic.CONVERSATIONS),
    (ReportSectionKind.RESULTS, SourceFormat.REDUCED_CSV, PromptTopic.LOCATIONS),
]

GOLDEN_EXCERPTS = [
    ("tool_report_locations.txt", ingest.parse_tool_report_locations, "locations"),
    ("lablog_locations.txt", ingest.parse_lablog_locations, "locations"),
    ("tool_report_messages.txt", ingest.parse_tool_report_messages, "messages"),
    ("lablog_messages.txt", ingest.parse_lablog_messages, "messages"),
    ("csv_messages.txt", ingest.parse_csv_messages, "messages"),
]


def test_criterion_5_grounding_soundness_and_sensitivity(golden_bundle):
    with criterion(5, "grounding soundness and sensitivity"):
        # soundness over rendered inputs
        for section, fmt, topic in RENDER_COMBOS:
            text = render_input(golden_bundle, section, fmt, topic=topic)
            report = score(text, GroundingContext(golden_bundle), section, topic=topic)
            bad = [c.surface_text for c in report.claims if c.status is ClaimStatus.UNGROUNDED]
            assert report.hallucination_count == 0, (section, fmt, topic, bad)

        # soundness over the raw golden excerpts, each against its own records
        for fixture, parser, kind in GOLDEN_EXCERPTS:
            text = read_fixture(fixture)
            records, _ = parser(text)
            bundle = CaseBundle(
                mandate=golden_bundle.mandate,
                locations={"X": tuple(records)} if kind == "locations" else {},
                messages={"X": tuple(records)} if kind == "messages" else {},
            )
            report = score(text, GroundingContext(bundle), ReportSectionKind.RESULTS)
            bad = [c.surface_text for c in report.claims if c.status is ClaimStatus.UNGROUNDED]
            assert report.hallucination_count == 0, (fixture, bad)

        # sensitivity: every injecting profile trips on every one of the 36 prompts
        for fault in (
            InjectCoordinate(40.7128, -74.0060),
            InjectName("Mr Moriarty"),
        ):
            config = BackendConfig(name="faulty", kind=BackendKind.MOCK, fault=fault)
            for prompt in build_matrix(golden_bundle):
                draft = generate(config, prompt)
                report = score(
                    draft, GroundingContext(golden_bundle), prompt.section, topic=prompt.topic
                )
                assert report.hallucination_count >= 1, (fault, prompt.prompt_id)

        # dropped facts lower completeness by exactly k/n
        intro_input = render_input(
            golden_bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT
        )
        prompt = build_prompt(
            ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, intro_input,
            PromptVariant(placement=Placement.REQUEST_LAST),
        )
        n = 10  # intro facts in the golden bundle
        for k in (1, 2, 3):
            config = BackendConfig(
                name="lossy", kind=BackendKind.MOCK, fault=DropFacts(k)
            )
            report = score(
                generate(config, prompt), GroundingContext(golden_bundle),
                ReportSectionKind.INTRODUCTION,
            )
            assert report.completeness == pytest.approx((n - k) / n, abs=1e-12)


# --- 6: end-to-end determinism ------------------------------------------------------------

def run_full_pipeline(root):
    root.mkdir()
    bundle = root / "bundle.json"
    matrix = root / "matrix.json"
    store = root / "store.jsonl"
    summary = root / "summary.txt"
    draft = root / "draft.json"
    report = root / "report.md"
    config = root / "backends.json"
    config.write_text(json.dumps({"profiles": {"mock": {"kind": "mock"}}}), encoding="utf-8")

    steps = [
        [
            "ingest",
            "--mandate", str(DATA_DIR / "full_mandate.txt"),
            "--lablog-locations", f"S1={DATA_DIR / 'lablog_locations.txt'}",
            "--lablog-messages", f"IP6={DATA_DIR / 'lablog_messages.txt'}",
            "--device-profile", f"S1={DATA_DIR / 'device_lablog.txt'}",
            "--method-steps", str(DATA_DIR / "method_steps.txt"),
            "--default-offset", "UTC-5",
            "-o", str(bundle),
        ],
        ["matrix", "--bundle", str(bundle), "-o", str(matrix)],
        [
            "experiment", "--bundle", str(bundle), "--config", str(config),
            "--backends", "mock", "--store", str(store),
        ],
        ["summarize", "--store", str(store), "-o", str(summary)],
        [
            "generate", "--bundle", str(bundle), "--config", str(config),
            "--backend", "mock", "--index", "0", "-o", str(draft),
        ],
        [
            "assemble", "--bundle", str(bundle),
            "-d", f"introduction={draft}", "-o", str(report),
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return {p.name: p.read_bytes() for p in (bundle, matrix, store, summary, draft, report)}


def test_criterion_6_end_to_end_determinism(tmp_path):
    with criterion(6, "end-to-end determinism"):
        first = run_full_pipeline(tmp_path / "one")
        second = run_full_pipeline(tmp_path / "two")
        assert first == second

        text = first["report.md"].decode("utf-8")
        headings = [l for l in text.splitlines() if l.startswith("# ")]
        assert headings == [
            "# Introduction",
            "# Items Received",
            "# Methodology",
            "# Results",
            "# Discussion",
            "# Conclusion",
        ]
        assert "*Interpretation is reserved for the examiner.*" in text
        assert "*Conclusions are reserved for the examiner.*" in text


# SHA-256 of criterion 6's files as the program wrote them before prompts and
# grounding reports were encoded by model.to_data.  Criterion 6 compares two
# fresh runs with each other, so only these pins catch a change of bytes that
# both runs share, such as a new key order.
PIPELINE_DIGESTS = {
    "bundle.json": "fd5e26405d66acb6253ccbed83920f3cbb91318573427f30a01975db77f7842c",
    "matrix.json": "127c01ea8430bb16d4c3cc3d533a1f61c75c848bdba603f6d2fa011f0be437bd",
    "store.jsonl": "e3b499bf62f1c825155d9e8ad678004c991277921076a6d31107850d6757a52e",
    "summary.txt": "f648339ac85c6ebdb395d126aeb220df540a548f8fd5dcadad8851843016678d",
    "draft.json": "3de286a7ed2b145708ab26bd2b41d607d86891ce2e7843359480b8cf3a5f6984",
    "report.md": "2f832b73b540427ea710ddcfa6a23e91875e6710acbcca5a276e76df7c183dcc",
}


def test_end_to_end_bytes_match_the_recorded_digests(tmp_path):
    files = run_full_pipeline(tmp_path / "run")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == PIPELINE_DIGESTS


# --- 7: statelessness ------------------------------------------------------------------------

def test_criterion_7_statelessness(golden_bundle, stub_server, tmp_path):
    with criterion(7, "statelessness"):
        config = BackendConfig(
            name="local", kind=BackendKind.LOCAL_GENERATE, endpoint_url=stub_server.url
        )
        prompts = build_matrix(golden_bundle)
        run_experiment(golden_bundle, [config], tmp_path / "store.jsonl", prompts)

        requests = stub_server.requests
        assert len(requests) == 36
        for i, (req, prompt) in enumerate(zip(requests, prompts)):
            body = req["body"]
            # each wire prompt is exactly this prompt, nothing accumulated
            assert body["prompt"] == prompt.rendered_text, i
            # no prior response text leaks into any later request
            assert "local draft" not in body["prompt"]
            assert "cookie" not in req["headers"]
            assert "authorization" not in req["headers"]


# --- 8: fault tolerance ---------------------------------------------------------------------

def test_criterion_8_fault_tolerance(golden_bundle, stub_server, tmp_path):
    with criterion(8, "fault tolerance"):
        stub_server.state["fail_on"] = {18}
        bundle_path = tmp_path / "bundle.json"
        from casedraft.model import bundle_to_json

        bundle_path.write_text(bundle_to_json(golden_bundle), encoding="utf-8")
        config_path = tmp_path / "backends.json"
        config_path.write_text(
            json.dumps(
                {
                    "profiles": {
                        "local": {
                            "kind": "local_generate",
                            "endpoint_url": stub_server.url,
                            "max_retries": 0,
                        }
                    }
                }
            ),
            encoding="utf-8",
        )
        store = tmp_path / "store.jsonl"
        rc = main([
            "experiment", "--bundle", str(bundle_path), "--config", str(config_path),
            "--backends", "local", "--store", str(store),
        ])
        assert rc == 0

        records = list(iter_store(store))
        kinds = [r["record_kind"] for r in records]
        assert len(records) == 36
        assert kinds.count("result") == 35
        assert kinds.count("error") == 1


# --- 9: live-backend smoke (optional) ----------------------------------------------------------

def test_criterion_9_live_backend_smoke(golden_bundle):
    endpoint = os.environ.get("CASEDRAFT_LIVE_ENDPOINT")
    if not endpoint:
        print("[criterion 9] live-backend smoke: SKIP (set CASEDRAFT_LIVE_ENDPOINT to run)")
        pytest.skip("no live endpoint configured")
    with criterion(9, "live-backend smoke"):
        config = BackendConfig(
            name="live", kind=BackendKind.LOCAL_GENERATE, endpoint_url=endpoint
        )
        prompt = build_matrix(golden_bundle)[0]
        draft = generate(config, prompt)
        assert draft.text.strip()
        assert draft.latency_s > 0
