"""Report assembly, the results store, experiment runs, and the CLI."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import orjson
import pytest
from hypothesis import given, settings, strategies as st

from casedraft.cli import _build_parser, _save_text, main
from casedraft import cli, gateway, pipeline
from casedraft.gateway import (
    DEFAULT_API_KEY_ENV,
    BackendConfig,
    BackendKind,
    DropFacts,
    InjectName,
    generate,
    mock_complete,
)
from casedraft.model import CaseBundle, LocationRecord, Mandate, ReportSectionKind, bundle_to_json
from casedraft.pipeline import (
    DISCLAIMER_BANNER,
    SECTION_TITLES,
    DraftContent,
    ManualPlaceholder,
    SummaryRow,
    SummaryTable,
    assemble,
    iter_store,
    next_run_id,
    render_markdown,
    run_experiment,
    summarize,
    torn_line,
)
from casedraft.prompting import (
    Placement,
    PromptVariant,
    build_matrix,
    build_prompt,
    render_input,
)
from casedraft.ingest import SourceFormat

from conftest import DATA_DIR

MOCK = BackendConfig(name="mock", kind=BackendKind.MOCK)


def intro_draft(bundle):
    text = render_input(bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT)
    prompt = build_prompt(
        ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text,
        PromptVariant(placement=Placement.REQUEST_LAST),
    )
    return generate(MOCK, prompt)


# --- assembly ----------------------------------------------------------------

def test_assemble_rejects_discussion_draft(golden_bundle):
    draft = intro_draft(golden_bundle)
    with pytest.raises(ValueError, match="reserved for the examiner"):
        assemble(golden_bundle, {ReportSectionKind.DISCUSSION: draft})
    with pytest.raises(ValueError, match="reserved for the examiner"):
        assemble(golden_bundle, {ReportSectionKind.CONCLUSION: draft})


def test_assemble_orders_all_six_sections(golden_bundle):
    document = assemble(golden_bundle, {})
    assert [k.value for k, _ in document.sections] == [
        "introduction", "items_received", "methodology",
        "results", "discussion", "conclusion",
    ]
    assert all(isinstance(c, ManualPlaceholder) for _, c in document.sections)


def test_assemble_scores_drafted_sections(golden_bundle):
    draft = intro_draft(golden_bundle)
    document = assemble(golden_bundle, {ReportSectionKind.INTRODUCTION: draft})
    content = document.content(ReportSectionKind.INTRODUCTION)
    assert isinstance(content, DraftContent)
    assert content.draft.backend_label == "mock"
    assert content.draft.prompt_id == draft.prompt_id
    assert content.grounding.hallucination_count == 0
    # the other five remain placeholders
    assert isinstance(document.content(ReportSectionKind.RESULTS), ManualPlaceholder)


def test_manual_sections_carry_examiner_notes(golden_bundle):
    document = assemble(golden_bundle, {})
    assert "Interpretation" in document.content(ReportSectionKind.DISCUSSION).note
    assert "Conclusions" in document.content(ReportSectionKind.CONCLUSION).note


# --- rendering -----------------------------------------------------------------

def test_render_markdown_layout(golden_bundle):
    draft = intro_draft(golden_bundle)
    text = render_markdown(assemble(golden_bundle, {ReportSectionKind.INTRODUCTION: draft}))
    lines = text.splitlines()
    assert lines[0] == f"> {DISCLAIMER_BANNER}"
    headings = [l for l in lines if l.startswith("# ")]
    assert headings == [f"# {SECTION_TITLES[k]}" for k, _ in assemble(golden_bundle, {}).sections]
    assert f"<!-- backend=mock prompt={draft.prompt_id}" in text
    assert "*Interpretation is reserved for the examiner.*" in text
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_render_markdown_placeholder_only(golden_bundle):
    text = render_markdown(assemble(golden_bundle, {}))
    assert text.count("# ") >= 6
    assert "<!--" not in text  # no provenance without drafts


# --- results store ---------------------------------------------------------------

def _write_lines(path, records) -> None:
    """Append one JSON line per record, as a run writes them."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def _records_of_a_fresh_run(bundle, configs, store, prompts=None) -> list[dict]:
    """Run the experiment on a store not yet made and return what it wrote,
    after checking the run's (run_id, appended, errors) against it."""
    summary = run_experiment(bundle, configs, store, prompts)
    records = list(iter_store(store))
    errors = sum(r["record_kind"] == "error" for r in records)
    assert summary == ("run-0001", len(records), errors)
    return records


def test_store_round_trip(tmp_path):
    path = tmp_path / "store.jsonl"
    _write_lines(path, [{"a": 1}, {"b": "x"}])
    _write_lines(path, [{"c": [1, 2]}])
    assert list(iter_store(path)) == [{"a": 1}, {"b": "x"}, {"c": [1, 2]}]


def test_iter_store_missing_file(tmp_path):
    assert list(iter_store(tmp_path / "absent.jsonl")) == []


def test_iter_store_skips_blank_lines(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
    assert list(iter_store(path)) == [{"a": 1}, {"b": 2}]


def test_next_run_id_counts_distinct_runs():
    assert next_run_id([]) == "run-0001"
    assert next_run_id([{"run_id": "run-0001"}] * 3) == "run-0002"
    assert next_run_id([{"run_id": "run-0001"}, {"run_id": "run-0002"}]) == "run-0003"
    assert next_run_id(iter([{"run_id": "run-0001"}, {"run_id": "run-0002"}])) == "run-0003"


def test_next_run_id_skips_identifiers_a_store_with_gaps_uses():
    # a failed run's records removed, or two stores joined
    assert next_run_id([{"run_id": "run-0002"}]) == "run-0003"
    assert next_run_id([{"run_id": "run-0001"}, {"run_id": "run-0003"}]) == "run-0004"
    assert next_run_id([{"run_id": "run-0003"}, {"run_id": "run-0004"}]) == "run-0005"
    assert next_run_id([{"run_id": "run-0001"}, {"run_id": "run-0004"}]) == "run-0003"


def test_iter_store_yields_one_record_at_a_time(tmp_path):
    path = tmp_path / "store.jsonl"
    assert list(iter_store(path)) == []
    _write_lines(path, [{"a": 1}, {"b": "x"}])
    records = iter_store(path)
    assert next(records) == {"a": 1}
    assert list(records) == [{"b": "x"}] == list(iter_store(path))[1:]


def _json_record(line: bytes):
    """The store's verdict on a line as json alone gives it."""
    try:
        value = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


def _same(ours, expected) -> bool:
    """Equal values of equal JSON types, nan equal to nan and -0.0 unequal to
    0.0.  An integer outside 64 bits may read as its nearest float, as
    iter_store documents."""
    if isinstance(expected, int) and not isinstance(expected, bool) and not -2**63 <= expected < 2**64:
        return type(ours) is float and ours == float(expected)
    if type(ours) is not type(expected):
        return False
    if isinstance(expected, float):
        return (math.isnan(ours) and math.isnan(expected)) or (
            ours == expected and math.copysign(1, ours) == math.copysign(1, expected)
        )
    if isinstance(expected, list):
        return len(ours) == len(expected) and all(map(_same, ours, expected))
    if isinstance(expected, dict):
        return list(ours) == list(expected) and all(_same(ours[k], expected[k]) for k in expected)
    return ours == expected


_json_text = st.text(st.one_of(
    st.characters(max_codepoint=0x7F),
    st.characters(exclude_categories=()),  # surrogates too
    st.sampled_from(["\ud800", "\udfff", "\x00", "\u2028", "\ufeff", "\u00e9", "\U0001d11e"]),
), max_size=8)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1) | _json_text
    | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_json_text, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(
    value=st.one_of(st.dictionaries(_json_text, _json_values, max_size=5), _json_values),
    ensure_ascii=st.booleans(),
    newline=st.booleans(),
    mutation=st.one_of(
        st.none(),
        st.tuples(st.just("cut"), st.floats(0, 1)),
        st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
        st.tuples(st.just("insert"), st.floats(0, 1), st.binary(min_size=1, max_size=3)),
    ),
)
def test_a_store_line_gets_the_verdict_and_value_json_gives_it(value, ensure_ascii, newline, mutation):
    line = json.dumps(value, ensure_ascii=ensure_ascii).encode("utf-8", "surrogatepass")
    if mutation is not None:
        at = int(mutation[1] * len(line))
        if mutation[0] == "cut":
            line = line[:at]
        elif mutation[0] == "flip":
            at = min(at, len(line) - 1)
            line = line[:at] + bytes([line[at] ^ mutation[2]]) + line[at + 1:]
        else:
            line = line[:at] + mutation[2] + line[at:]
    line += b"\n" if newline else b""
    expected = _json_record(line)
    ours = pipeline._record(line)
    assert (ours is None) == (expected is None)
    assert expected is None or _same(ours, expected)


@pytest.mark.parametrize("line, expected", [
    pytest.param(b'{"x": NaN}', {"x": math.nan}, id="nan"),
    pytest.param(b'{"x": Infinity, "y": -Infinity}', {"x": math.inf, "y": -math.inf}, id="infinity"),
    pytest.param(b'{"x": 1e400}', {"x": math.inf}, id="1e400"),
    pytest.param(b'{"x": "\\ud800"}', {"x": "\ud800"}, id="lone-surrogate-escape"),
    pytest.param(b'\xef\xbb\xbf{"x": 1}', None, id="utf-8-bom"),
    pytest.param(b'{"x": "\xff"}', None, id="invalid-utf-8"),
    pytest.param(b'{"x": "\xed\xa0\x80"}', None, id="surrogate-in-utf-8"),
    pytest.param(b'{"x": -9223372036854775808, "y": 18446744073709551615}',
                 {"x": -2**63, "y": 2**64 - 1}, id="64-bit-integers"),
    # the 64-bit integer note: a larger integer reads as its nearest float
    pytest.param(b'{"x": 123456789012345678901234567890}', {"x": 1.2345678901234568e+29},
                 id="integer-past-64-bits"),
    pytest.param(b'{"x": ' + b"[" * 5000 + b"]" * 5000 + b"}", None, id="nested-past-json-limit"),
])
def test_store_lines_orjson_refuses_or_reads_otherwise(line, expected):
    record = pipeline._record(line + b"\n")
    assert (record is None) if expected is None else _same(record, expected)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from([b"{", b"[", b"}", b"]", b'"', b"\\", b":", b"a", b" ", "é".encode(),
                              "€[".encode(), "😀".encode(), b"\xed\xa0\x80"]), max_size=60).map(b"".join),
))
def test_one_pass_counts_the_brackets_and_braces_the_two_counts_did(line):
    assert len(line.translate(None, pipeline._NOT_OPENERS)) == line.count(b"{") + line.count(b"[")


def test_a_line_nested_deeper_than_orjson_can_read_is_no_record_and_no_crash():
    # orjson 3.8 overflows its stack on such a line and kills the process
    script = (
        "from casedraft.pipeline import _record\n"
        "deep_objects = b'{\"x\": ' * 100000 + b'1' + b'}' * 100000\n"
        "deep_arrays = b'{\"x\": ' + b'[' * 200000 + b']' * 200000 + b'}'\n"
        "print(_record(deep_objects), _record(deep_arrays))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])})
    assert (done.returncode, done.stdout) == (0, "None None\n"), done.stderr[-500:]


def test_a_store_casedraft_wrote_is_decoded_by_orjson_alone(golden_bundle, tmp_path, monkeypatch):
    store = tmp_path / "store.jsonl"
    run_experiment(golden_bundle, [MOCK, BackendConfig(name="inject", kind=BackendKind.MOCK,
                                                       fault=InjectName("Lord Vader"))], store)
    calls = Counter()

    def counted(name, loads):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return loads(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(orjson, "loads", counted("orjson", orjson.loads))
    monkeypatch.setattr(json, "loads", counted("json", json.loads))
    records = list(pipeline.iter_store(store))
    assert len(records) == 72
    assert calls == {"orjson": 72}


def _synthetic_record(i: int) -> dict:
    """A store record of the shape run_experiment writes, about 1.5 kB."""
    return {
        "run_id": f"run-{i // 180 + 1:04d}",
        "backend": f"backend-{i % 5}",
        "prompt": {
            "prompt_id": f"results-{i % 36:02d}",
            "section": ("introduction", "methodology", "results")[i % 3],
            "input_format": ("mandate_text", "lab_log_table", "reduced_csv")[i % 3],
            "rendered_text": f"Prompt {i}: " + "evidence line\n" * 40,
        },
        "record_kind": "error" if i % 17 == 0 else "result",
        "draft": {"text": f"Draft {i}. " + "The device was seen at 38.9073, -77.0727. " * 12,
                  "latency_s": (i % 97) / 10.0},
        "grounding": {
            "hallucination_count": i % 4,
            "completeness": (i % 9) / 8.0,
            "claims": [{"kind": "coordinate", "span": [j, j + 18], "surface": f"38.{j:04d}"}
                       for j in range(4)],
        },
    }


def _traced(fn):
    """fn's result, and the bytes tracemalloc saw held at its return and at
    peak while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_run_id_scan_and_summary_hold_a_fraction_of_the_store(tmp_path):
    store = tmp_path / "store.jsonl"
    _write_lines(store, (_synthetic_record(i) for i in range(1200)))
    records, held, _ = _traced(lambda: list(iter_store(store)))
    run_id, _, scan_peak = _traced(lambda: next_run_id(pipeline.iter_store(store)))
    table, _, fold_peak = _traced(lambda: summarize(pipeline.iter_store(store)))
    assert scan_peak < held / 4
    assert fold_peak < held / 4
    assert run_id == next_run_id(records) == "run-0008"
    assert table == summarize(records)


# --- experiment runs ------------------------------------------------------------

def test_run_experiment_mock_records(golden_bundle, tmp_path):
    store = tmp_path / "store.jsonl"
    assert run_experiment(golden_bundle, [MOCK], store) == ("run-0001", 36, 0)
    records = list(iter_store(store))
    assert len(records) == 36
    assert {r["record_kind"] for r in records} == {"result"}
    assert {r["run_id"] for r in records} == {"run-0001"}
    # a second run on the same store appends under the next id
    assert run_experiment(golden_bundle, [MOCK], store) == ("run-0002", 36, 0)
    again = list(iter_store(store))
    assert again[:36] == records
    assert {r["run_id"] for r in again[36:]} == {"run-0002"}
    assert len(again) == 72


def test_a_run_holds_none_of_its_records(golden_bundle, tmp_path):
    def traced_run(backends: int, store):
        configs = [replace(MOCK, name=f"mock-{i}") for i in range(backends)]
        return _traced(lambda: run_experiment(golden_bundle, configs, store))

    traced_run(1, tmp_path / "warm.jsonl")  # first-use caches are not the run's
    one, eight = tmp_path / "one.jsonl", tmp_path / "eight.jsonl"
    summary_one, held_one, peak_one = traced_run(1, one)
    summary_eight, held_eight, peak_eight = traced_run(8, eight)
    # 252 more records, which a run keeping them would hold decoded in
    # several times their bytes on disk; neither figure grows by half of those
    more = eight.stat().st_size - one.stat().st_size
    assert held_eight - held_one < more / 2
    assert peak_eight - peak_one < more / 2
    assert (summary_one, summary_eight) == (("run-0001", 36, 0), ("run-0001", 288, 0))


def test_run_experiment_is_byte_deterministic(golden_bundle, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_experiment(golden_bundle, [MOCK], a)
    run_experiment(golden_bundle, [MOCK], b)
    assert a.read_bytes() == b.read_bytes()


def test_a_run_opens_its_store_once_and_commits_each_record_before_the_next_score(
    golden_bundle, tmp_path, monkeypatch
):
    store = tmp_path / "store.jsonl"
    store.write_bytes(b'{"run_id": "run-0001"}\n{"run_id": "run-00')  # torn by a crash
    opened, committed = [], []
    original_score = pipeline.score

    def counting_open(file, mode="r", *args, **kwargs):
        opened.append(mode)
        return open(file, mode, *args, **kwargs)

    def scoring(*args, **kwargs):
        committed.append(store.read_bytes().count(b"\n"))
        return original_score(*args, **kwargs)

    monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
    monkeypatch.setattr(pipeline, "score", scoring)
    assert run_experiment(golden_bundle, [MOCK, MOCK], store) == ("run-0002", 72, 0)
    assert opened == ["rb", "a+b"]  # the run-id scan, then one handle for 72 appends
    assert committed == [1] + list(range(2, 73))  # the torn line is cut at the first append
    records = list(iter_store(store))
    assert records[0] == {"run_id": "run-0001"}
    assert [r["run_id"] for r in records[1:]] == ["run-0002"] * 72


def test_run_experiment_derives_each_input_once_for_all_mock_backends(
    golden_bundle, tmp_path, monkeypatch
):
    derived = []
    original = gateway.facts_from_input

    def counting(*args):
        derived.append(args)
        return original(*args)

    monkeypatch.setattr(gateway, "facts_from_input", counting)
    configs = [
        MOCK,
        BackendConfig(name="drop", kind=BackendKind.MOCK, fault=DropFacts(1)),
        BackendConfig(name="name", kind=BackendKind.MOCK, fault=InjectName("Mr Moriarty")),
    ]
    store = tmp_path / "store.jsonl"
    run_experiment(golden_bundle, configs, store)
    # the 36-prompt matrix holds 9 distinct inputs; all three backends share them
    assert len(derived) == 9
    assert len(set(derived)) == 9
    # the memo lives one run: a second run derives every input again
    run_experiment(golden_bundle, configs, store)
    assert len(derived) == 18
    monkeypatch.undo()

    prompts = build_matrix(golden_bundle)
    expected = [
        mock_complete(prompt, config.fault)
        for _ in range(2) for config in configs for prompt in prompts
    ]
    assert [r["draft"]["text"] for r in iter_store(store)] == expected


def test_run_experiment_turns_failures_into_error_records(golden_bundle, tmp_path, stub_server):
    stub_server.state["fail_on"] = {3}
    config = BackendConfig(
        name="flaky",
        kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url,
        max_retries=0,
    )
    records = _records_of_a_fresh_run(golden_bundle, [config], tmp_path / "store.jsonl")
    kinds = [r["record_kind"] for r in records]
    assert len(records) == 36
    assert kinds.count("error") == 1
    assert kinds.count("result") == 35
    assert kinds[2] == "error"  # third request hit the injected 503
    assert "error" in records[2]


LOCAL_PATH, HOSTED_PATH = "/api/v1/generate", "/v1/chat/completions"


@pytest.fixture()
def http_backends(stub_server, monkeypatch):
    """A local and a hosted backend on the stub, which holds each request 50 ms."""
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-test")
    stub_server.state["delay"] = 0.05
    return [
        BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                      endpoint_url=stub_server.url, max_retries=0),
        BackendConfig(name="hosted", kind=BackendKind.HOSTED_CHAT,
                      endpoint_url=stub_server.url, model_name="stub-chat", max_retries=0),
    ]


def _wire_prompt(request: dict) -> str:
    body = request["body"]
    return body["prompt"] if request["path"] == LOCAL_PATH else body["messages"][0]["content"]


def test_run_experiment_drafts_http_backends_in_parallel_and_records_in_matrix_order(
    golden_bundle, tmp_path, stub_server, http_backends
):
    prompts = build_matrix(golden_bundle)[::9]
    records = _records_of_a_fresh_run(golden_bundle, http_backends, tmp_path / "store.jsonl", prompts)

    expected = [(config.name, prompt) for config in http_backends for prompt in prompts]
    assert [(r["backend"], r["prompt"]["prompt_id"]) for r in records] == [
        (name, prompt.prompt_id) for name, prompt in expected
    ]
    assert {r["record_kind"] for r in records} == {"result"}
    # each backend's requests arrive in its prompts' order
    for path in (LOCAL_PATH, HOSTED_PATH):
        wire = [_wire_prompt(r) for r in stub_server.requests if r["path"] == path]
        assert wire == [prompt.rendered_text for prompt in prompts]
    # each record holds the answer to its own prompt's request
    sent = {r["n"]: r for r in stub_server.requests}
    for record, (_, prompt) in zip(records, expected):
        n = int(record["draft"]["text"].rsplit(" ", 1)[1])
        assert _wire_prompt(sent[n]) == prompt.rendered_text
        assert record["draft"]["latency_s"] >= 0.05
    # the two backends waited at once, each with one request in flight
    assert stub_server.state["peak_in_flight"] == 2
    assert stub_server.state["peak_in_flight_by_path"] == {LOCAL_PATH: 1, HOSTED_PATH: 1}


def test_a_failure_of_the_second_backend_lands_at_its_position(
    golden_bundle, tmp_path, stub_server, http_backends
):
    stub_server.state["fail_on"] = {(HOSTED_PATH, 2)}
    prompts = build_matrix(golden_bundle)[::9]
    records = _records_of_a_fresh_run(golden_bundle, http_backends, tmp_path / "store.jsonl", prompts)
    kinds = [r["record_kind"] for r in records]
    at = len(prompts) + 1  # the hosted backend's second prompt
    assert kinds == ["result"] * at + ["error"] + ["result"] * (len(records) - at - 1)
    assert records[at]["backend"] == "hosted"
    assert records[at]["prompt"]["prompt_id"] == prompts[1].prompt_id
    assert records[at]["error"] == "hosted: status 503: backend overloaded"


@pytest.mark.parametrize("kind, path", [
    (BackendKind.LOCAL_GENERATE, LOCAL_PATH),
    (BackendKind.HOSTED_CHAT, HOSTED_PATH),
])
def test_an_answer_utf8_cannot_encode_becomes_an_error_record(
    kind, path, golden_bundle, tmp_path, stub_server, http_backends
):
    stub_server.state["texts"] = {(path, 3): "Draft \ud800 text"}
    config = next(c for c in http_backends if c.kind is kind)
    records = _records_of_a_fresh_run(golden_bundle, [config], tmp_path / "store.jsonl")
    assert [r["record_kind"] for r in records] == ["result"] * 2 + ["error"] + ["result"] * 33
    assert records[2]["error"] == f"{config.name}: backend returned text UTF-8 cannot encode"


def test_an_aborted_run_sends_no_further_prompts(
    golden_bundle, tmp_path, stub_server, http_backends, monkeypatch
):
    def failing_score(*args, **kwargs):
        raise RuntimeError("scoring broke")

    monkeypatch.setattr(pipeline, "score", failing_score)
    store = tmp_path / "store.jsonl"
    with pytest.raises(RuntimeError, match="scoring broke"):
        run_experiment(golden_bundle, http_backends, store, build_matrix(golden_bundle))
    sent = len(stub_server.requests)
    time.sleep(0.2)
    assert len(stub_server.requests) == sent  # nothing arrives after the run returned
    # the first draft's scoring aborts the run while each backend has sent
    # a request or two of its 36
    per_path = Counter(r["path"] for r in stub_server.requests)
    assert all(count <= 3 for count in per_path.values()), per_path
    assert not store.exists()


# --- summary statistics -----------------------------------------------------------

def test_summarize_grouping_and_means(golden_bundle, tmp_path):
    records = _records_of_a_fresh_run(golden_bundle, [MOCK], tmp_path / "s.jsonl")
    table = summarize(records)
    keys = [(r.backend, r.section, r.input_format) for r in table.rows]
    assert keys == [
        ("mock", "introduction", "mandate_text"),
        ("mock", "items_received", "mandate_text"),
        ("mock", "methodology", "lab_log_table"),
        ("mock", "results", "lab_log_table"),
        ("mock", "results", "reduced_csv"),
        ("mock", "results", "tool_report_excerpt"),
    ]
    assert [r.count for r in table.rows] == [4, 4, 4, 8, 8, 8]
    for row in table.rows:
        assert row.error_count == 0
        assert row.mean_latency_s == 0.0
        assert row.median_latency_s == 0.0
        assert row.mean_hallucinations == 0.0
        assert row.mean_completeness == 1.0


def test_summarize_is_order_independent(golden_bundle, tmp_path):
    records = _records_of_a_fresh_run(golden_bundle, [MOCK], tmp_path / "s.jsonl")
    shuffled = list(records)
    random.Random(11).shuffle(shuffled)
    assert summarize(shuffled) == summarize(records)


def test_summarize_error_records_only_count():
    records = [
        {
            "backend": "b", "record_kind": "result",
            "prompt": {"section": "results", "input_format": "reduced_csv"},
            "draft": {"latency_s": 2.0},
            "grounding": {"hallucination_count": 1, "completeness": 0.5},
        },
        {
            "backend": "b", "record_kind": "result",
            "prompt": {"section": "results", "input_format": "reduced_csv"},
            "draft": {"latency_s": 4.0},
            "grounding": {"hallucination_count": 3, "completeness": 1.0},
        },
        {
            "backend": "b", "record_kind": "error",
            "prompt": {"section": "results", "input_format": "reduced_csv"},
            "error": "boom",
        },
    ]
    row = summarize(records).rows[0]
    assert (row.count, row.error_count) == (3, 1)
    assert row.mean_latency_s == 3.0
    assert row.median_latency_s == 3.0
    assert row.mean_hallucinations == 2.0
    assert row.mean_completeness == 0.75


def _summary_key(record):
    prompt = record.get("prompt", {})
    return (record.get("backend", "?"), prompt.get("section", "?"), prompt.get("input_format", "?"))


def _reference_summary(records) -> SummaryTable:
    """The oracle: each group gathered from the whole list, then folded."""
    rows = []
    for key in sorted({_summary_key(r) for r in records}):
        group = [r for r in records if _summary_key(r) == key]
        results = [r for r in group if r.get("record_kind") == "result"]
        latencies = [r["draft"]["latency_s"] for r in results]
        hallucinations = [r["grounding"]["hallucination_count"] for r in results]
        completeness = [r["grounding"]["completeness"] for r in results]
        rows.append(SummaryRow(
            backend=key[0], section=key[1], input_format=key[2],
            count=len(group), error_count=len(group) - len(results),
            mean_latency_s=statistics.mean(latencies) if latencies else None,
            median_latency_s=statistics.median(latencies) if latencies else None,
            mean_hallucinations=statistics.mean(hallucinations) if hallucinations else None,
            mean_completeness=statistics.mean(completeness) if completeness else None,
        ))
    return SummaryTable(tuple(rows))


def _optional(key, values):
    """A one-entry dict, or an empty one for a record that lacks the key."""
    return st.one_of(st.just({}), values.map(lambda v: {key: v}))


_PROMPTS = st.builds(
    lambda section, fmt: {**section, **fmt},
    _optional("section", st.sampled_from(["introduction", "results"])),
    _optional("input_format", st.sampled_from(["mandate_text", "reduced_csv"])),
)
_RESULT_FIELDS = st.fixed_dictionaries({
    "record_kind": st.just("result"),
    "draft": st.fixed_dictionaries({"latency_s": st.floats(0.0, 60.0)}),
    "grounding": st.fixed_dictionaries({
        "hallucination_count": st.integers(0, 5),
        "completeness": st.floats(0.0, 1.0),
    }),
})
_ERROR_FIELDS = st.fixed_dictionaries({"record_kind": st.just("error"), "error": st.just("boom")})
_RECORDS = st.builds(
    lambda backend, prompt, fields: {**backend, **prompt, **fields},
    _optional("backend", st.sampled_from(["local", "hosted"])),
    _optional("prompt", _PROMPTS),
    st.one_of(_RESULT_FIELDS, _ERROR_FIELDS),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_RECORDS, max_size=40).flatmap(lambda rs: st.tuples(st.just(rs), st.permutations(rs))))
def test_summarize_folds_a_stream_as_a_reference_fold_over_the_list(records_and_shuffled):
    records, shuffled = records_and_shuffled
    assert summarize(iter(shuffled)) == _reference_summary(records)


def test_summary_table_renders_text(golden_bundle, tmp_path):
    records = _records_of_a_fresh_run(golden_bundle, [MOCK], tmp_path / "s.jsonl")
    text = summarize(records).render_text()
    assert "backend" in text.splitlines()[0]
    assert "mock" in text


# --- command line ------------------------------------------------------------------

@pytest.fixture()
def bundle_file(golden_bundle, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(bundle_to_json(golden_bundle), encoding="utf-8")
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"profiles": {"mock": {"kind": "mock"}}}), encoding="utf-8")
    return path


_GOLDEN_INGEST = [
    "ingest",
    "--mandate", str(DATA_DIR / "full_mandate.txt"),
    "--lablog-locations", f"S1={DATA_DIR / 'lablog_locations.txt'}",
    "--lablog-messages", f"IP6={DATA_DIR / 'lablog_messages.txt'}",
    "--device-profile", f"S1={DATA_DIR / 'device_lablog.txt'}",
    "--method-steps", str(DATA_DIR / "method_steps.txt"),
]


def test_cli_ingest_builds_bundle(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    rc = main([*_GOLDEN_INGEST, "--default-offset", "UTC-5", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["mandate"]["questions"]) == 5
    assert len(doc["locations"]["S1"]) == 3
    assert len(doc["messages"]["IP6"]) == 3
    assert doc["device_profiles"]["S1"]["vendor"] == "Samsung"
    # auto-registered items inherit profile details
    assert {i["item_id"] for i in doc["items"]} == {"S1", "IP6"}


def _fresh_golden_bundle(tmp_path) -> bytes:
    fresh = tmp_path / "fresh" / "bundle.json"
    fresh.parent.mkdir()
    assert main([*_GOLDEN_INGEST, "-o", str(fresh)]) == 0
    return fresh.read_bytes()


def test_an_output_over_a_longer_file_is_the_fresh_output(tmp_path):
    out = tmp_path / "bundle.json"
    out.write_bytes(os.urandom(1 << 20))
    assert main([*_GOLDEN_INGEST, "-o", str(out)]) == 0
    assert out.read_bytes() == _fresh_golden_bundle(tmp_path)


def test_an_output_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 100_000, encoding="utf-8")
    link.symlink_to(target)
    assert main([*_GOLDEN_INGEST, "-o", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == _fresh_golden_bundle(tmp_path)


def test_an_output_keeps_the_inode_and_mode_of_the_file_it_rewrites(tmp_path):
    out = tmp_path / "bundle.json"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o640)
    before = out.stat()
    assert main([*_GOLDEN_INGEST, "-o", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert out.read_bytes() == _fresh_golden_bundle(tmp_path)


def test_an_output_file_is_synced_and_dev_null_is_not(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(os, "fdatasync", synced.append)
    assert main([*_GOLDEN_INGEST, "-o", str(tmp_path / "bundle.json")]) == 0
    assert len(synced) == 1
    assert main([*_GOLDEN_INGEST, "-o", os.devnull]) == 0
    assert len(synced) == 1


def test_a_rejected_command_leaves_its_old_output_as_it_was(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    old = os.urandom(4096)
    out.write_bytes(old)
    assert main([*_GOLDEN_INGEST, "--default-offset", "UTC+99", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == old
    # a text that cannot be written is found before the file is opened
    with pytest.raises(UnicodeEncodeError):
        _save_text("Healy\ud800Hall", str(out))
    assert out.read_bytes() == old


def test_cli_ingest_items_may_omit_vendor_and_model(tmp_path):
    items = tmp_path / "items.json"
    items.write_text(json.dumps([{"item_id": "IMG", "kind": "forensic_image"}]), encoding="utf-8")
    out = tmp_path / "bundle.json"
    assert main(["ingest", "--items", str(items), "-o", str(out)]) == 0
    (item,) = json.loads(out.read_text(encoding="utf-8"))["items"]
    assert (item["kind"], item["vendor"], item["model"]) == ("forensic_image", "", "")


def test_cli_ingest_items_need_an_id(tmp_path, capsys):
    items = tmp_path / "items.json"
    items.write_text(json.dumps([{"kind": "forensic_image"}]), encoding="utf-8")
    assert main(["ingest", "--items", str(items), "-o", str(tmp_path / "bundle.json")]) == 2
    assert "items file" in capsys.readouterr().err


def test_cli_ingest_rejects_an_item_flag_without_a_file(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert main(["ingest", "--tool-locations", "IMG1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: expected ITEM=FILE, got 'IMG1'\n"
    assert not out.exists()


def test_cli_validate(bundle_file):
    assert main(["validate", "--bundle", str(bundle_file)]) == 0


def test_cli_validate_missing_file(tmp_path, capsys):
    rc = main(["validate", "--bundle", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_transform_spatial(bundle_file, tmp_path):
    out = tmp_path / "clusters.json"
    rc = main(["transform", "spatial", "--bundle", str(bundle_file), "-o", str(out)])
    assert rc == 0
    clusters = json.loads(out.read_text(encoding="utf-8"))
    assert len(clusters) == 1
    assert clusters[0]["member_indices"] == [0, 1, 2]


def test_cli_transform_csv(bundle_file, tmp_path):
    out = tmp_path / "messages.csv"
    rc = main(["transform", "csv", "--bundle", str(bundle_file), "-o", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4  # header + three messages


def test_cli_transform_places(bundle_file, tmp_path):
    out = tmp_path / "places.json"
    rc = main([
        "transform", "places", "--bundle", str(bundle_file),
        "--gazetteer", str(DATA_DIR / "gazetteer.txt"), "-o", str(out),
    ])
    assert rc == 0
    places = json.loads(out.read_text(encoding="utf-8"))
    assert [p["place"] for p in places] == [
        "Healy Hall", "Healy Hall", "Georgetown University",
    ]


def test_cli_transform_colocate_requires_items(bundle_file, capsys):
    rc = main(["transform", "colocate", "--bundle", str(bundle_file)])
    assert rc == 2
    assert "--item" in capsys.readouterr().err


def test_cli_transform_colocate_document_bytes(tmp_path):
    def loc(name, lat, minute):
        return LocationRecord(
            name=name, timestamp=datetime(2019, 2, 14, 14, minute, tzinfo=timezone.utc),
            category="c", latitude=lat, longitude=-77.0727,
        )

    # identical fixes lie exactly 0.0 m apart on every platform's libm
    bundle = CaseBundle(
        mandate=Mandate(description="d"),
        locations={
            "A": (loc("a0.jpg", 38.9075, 0), loc("a1.jpg", 39.5, 5)),
            "B": (loc("b0.jpg", 38.9075, 30), loc("b1.jpg", 38.9075, 0)),
        },
    )
    path = tmp_path / "bundle.json"
    path.write_text(bundle_to_json(bundle), encoding="utf-8")
    out = tmp_path / "colocate.json"
    rc = main([
        "transform", "colocate", "--bundle", str(path), "--item", "A", "--item-b", "B",
        "-o", str(out),
    ])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == (
        "[\n"
        "  {\n"
        '    "index_a": 0,\n'
        '    "index_b": 1,\n'
        '    "distance_m": 0.0,\n'
        '    "time_gap_s": 0.0\n'
        "  },\n"
        "  {\n"
        '    "index_a": 0,\n'
        '    "index_b": 0,\n'
        '    "distance_m": 0.0,\n'
        '    "time_gap_s": 1800.0\n'
        "  }\n"
        "]\n"
    )


def test_cli_matrix(bundle_file, tmp_path):
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--bundle", str(bundle_file), "-o", str(out)]) == 0
    prompts = json.loads(out.read_text(encoding="utf-8"))
    assert len(prompts) == 36


def test_cli_generate_and_score(bundle_file, config_file, tmp_path):
    draft_path = tmp_path / "draft.json"
    rc = main([
        "generate", "--bundle", str(bundle_file), "--config", str(config_file),
        "--backend", "mock", "--index", "0", "-o", str(draft_path),
    ])
    assert rc == 0
    draft = json.loads(draft_path.read_text(encoding="utf-8"))
    assert draft["backend_label"] == "mock"

    report_path = tmp_path / "report.json"
    rc = main([
        "score", "--bundle", str(bundle_file), "--section", "introduction",
        "--draft", str(draft_path), "-o", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["hallucination_count"] == 0
    assert report["completeness"] == 1.0


def test_cli_score_and_assemble_accept_a_draft_without_latency(bundle_file, tmp_path):
    draft_path = tmp_path / "draft.json"
    draft_path.write_text(json.dumps({
        "prompt_id": "p", "backend_label": "hand", "text": "Mr Sforza.",
        "created_at": "2019-02-05T12:16:00+00:00",
    }), encoding="utf-8")
    assert main([
        "score", "--bundle", str(bundle_file), "--section", "introduction",
        "--draft", str(draft_path), "-o", str(tmp_path / "report.json"),
    ]) == 0
    assert main([
        "assemble", "--bundle", str(bundle_file),
        "-d", f"introduction={draft_path}", "-o", str(tmp_path / "report.md"),
    ]) == 0


def test_cli_generate_unknown_backend(bundle_file, config_file, capsys):
    rc = main([
        "generate", "--bundle", str(bundle_file), "--config", str(config_file),
        "--backend", "missing",
    ])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_cli_score_plain_text(bundle_file, tmp_path):
    text_path = tmp_path / "draft.txt"
    text_path.write_text("Mr Sforza and Mr Moriarty.", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main([
        "score", "--bundle", str(bundle_file), "--section", "introduction",
        "--text", str(text_path), "-o", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["hallucination_count"] == 1


def test_cli_assemble(bundle_file, config_file, tmp_path):
    draft_path = tmp_path / "draft.json"
    main([
        "generate", "--bundle", str(bundle_file), "--config", str(config_file),
        "--backend", "mock", "--index", "0", "-o", str(draft_path),
    ])
    report_path = tmp_path / "report.md"
    rc = main([
        "assemble", "--bundle", str(bundle_file),
        "-d", f"introduction={draft_path}", "-o", str(report_path),
    ])
    assert rc == 0
    text = report_path.read_text(encoding="utf-8")
    assert text.startswith("> ")
    assert len([l for l in text.splitlines() if l.startswith("# ")]) == 6


def test_cli_assemble_rejects_conclusion_draft(bundle_file, config_file, tmp_path, capsys):
    draft_path = tmp_path / "draft.json"
    main([
        "generate", "--bundle", str(bundle_file), "--config", str(config_file),
        "--backend", "mock", "-o", str(draft_path),
    ])
    rc = main([
        "assemble", "--bundle", str(bundle_file), "-d", f"conclusion={draft_path}",
    ])
    assert rc == 2
    assert "reserved" in capsys.readouterr().err


def test_cli_assemble_rejects_a_draft_flag_without_a_file(bundle_file, tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["assemble", "--bundle", str(bundle_file), "-d", "introduction", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: expected SECTION=FILE, got 'introduction'\n"
    assert not out.exists()


def test_cli_experiment_and_summarize(bundle_file, config_file, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    rc = main([
        "experiment", "--bundle", str(bundle_file), "--config", str(config_file),
        "--backends", "mock", "--store", str(store),
    ])
    assert rc == 0
    assert "appended 36 records" in capsys.readouterr().out

    out = tmp_path / "summary.json"
    rc = main(["summarize", "--store", str(store), "--json", "-o", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert sum(r["count"] for r in rows) == 36


def test_cli_experiment_names_its_run_or_a_dash_when_it_appends_nothing(
    bundle_file, config_file, tmp_path, capsys
):
    store = tmp_path / "store.jsonl"
    argv = ["experiment", "--bundle", str(bundle_file), "--config", str(config_file),
            "--store", str(store), "--backends"]
    assert main(argv + ["mock"]) == 0
    assert capsys.readouterr().out == f"appended 36 records to {store} as run-0001 (0 errors)\n"
    assert main(argv + [","]) == 0
    assert capsys.readouterr().out == f"appended 0 records to {store} as - (0 errors)\n"


def test_cli_experiment_drafts_from_no_bundle_validate_rejects(bundle_file, config_file, tmp_path, capsys):
    doc = json.loads(bundle_file.read_text(encoding="utf-8"))
    doc["messages"]["IPX"] = doc["messages"].pop("IP6")
    bundle_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--bundle", str(bundle_file)]) == 1
    assert capsys.readouterr().err == "messages['IPX']: unknown item_id\n"
    store = tmp_path / "store.jsonl"
    assert main(["experiment", "--bundle", str(bundle_file), "--config", str(config_file),
                 "--backends", "mock", "--store", str(store)]) == 2
    assert capsys.readouterr().err == "error: messages['IPX']: unknown item_id\n"
    assert not store.exists()


# --- the parser each call builds ----------------------------------------------------

_VALID_CALLS = {
    "ingest": ["--mandate", "m.txt", "--tool-locations", "S1=a.txt", "--tool-locations", "S2=b.txt", "-o", "b.json"],
    "validate": ["--bundle", "b.json"],
    "transform": ["spatial", "--bundle", "b.json", "--radius", "200"],
    "matrix": ["--bundle", "b.json", "--french-labels"],
    "generate": ["--bundle", "b.json", "--config", "c.json", "--backend", "mock", "--index", "3"],
    "score": ["--bundle", "b.json", "--section", ReportSectionKind.INTRODUCTION.value, "--draft", "d.json"],
    "assemble": ["--bundle", "b.json", "-d", "introduction=d.json", "-d", "results=e.json"],
    "experiment": ["--bundle", "b.json", "--config", "c.json", "--backends", "mock", "--store", "s.jsonl"],
    "summarize": ["--store", "s.jsonl", "--json"],
}
_PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--store", "s"], ["--store", "s", "summarize"],
    ["--", "validate"], ["Validate", "--bundle", "b.json"], ["ingest", "nosuch"],
    *([command, *tail] for command, valid in _VALID_CALLS.items() for tail in (
        [], ["-h"], ["--nosuch"], [valid[0]], [*valid, "extra"], valid, [*valid, "--help"],
    )),
    ["transform", "nope", "--bundle", "b.json"],
    ["transform", "spatial", "--bundle", "b.json", "--radius", "far"], ["transform", "spatial", "--bundle"],
    ["score", "--bundle", "b.json", "--section", "zzz", "--text", "t.txt"],
    ["score", "--bundle", "b.json", "--section", "introduction", "--topic", "x", "--text", "t.txt"],
    ["score", "--bundle", "b.json", "--section", "introduction", "--draft", "d.json", "--text", "t.txt"],
    ["score", "--bundle", "b.json", "--section", "introduction"],
    ["generate", "--bundle", "b.json", "--config", "c.json", "--backend", "mock", "--index", "x"],
    ["ingest", "--mand", "m.txt"], ["summarize", "--st", "s.jsonl"],
]


def _parsed(parser, argv, capsys):
    """What parsing argv gives: exit status, stdout, stderr and the
    namespace, with its handler by name."""
    try:
        namespace = vars(parser.parse_args(argv))
        namespace["func"] = namespace["func"].__name__
        status = None
    except SystemExit as exc:
        namespace, status = None, exc.code
    out, err = capsys.readouterr()
    return status, out, err, namespace


@pytest.mark.parametrize("argv", _PARSER_CORPUS, ids=" ".join)
def test_each_call_parses_as_the_parser_of_every_command_does(argv, capsys):
    full = _parsed(cli._build_parser(), argv, capsys)
    ours = _parsed(cli._build_parser(argv[0] if argv else None), argv, capsys)
    assert ours == full


def test_the_full_parser_names_the_command_argument_in_its_errors(capsys):
    # a metavar on it would name the argument by its choice list instead
    assert _parsed(cli._build_parser(), [], capsys)[2].endswith(
        "error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'nosuch'" in _parsed(cli._build_parser(), ["nosuch"], capsys)[2]


def test_the_parser_of_a_named_command_declares_that_command_alone():
    def declared(parser, command):
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices), [a.dest for a in sub.choices[command]._actions]

    names, ingest_args = declared(cli._build_parser("ingest"), "ingest")
    assert names == ["ingest"]
    assert ingest_args == declared(cli._build_parser(), "ingest")[1]
    assert "mandate" in ingest_args and "bundle" not in ingest_args and "store" not in ingest_args


def test_main_builds_the_parser_of_the_command_it_runs(tmp_path, capsys, monkeypatch):
    built = []

    def recording(command=None):
        built.append(command)
        return _build_parser(command)

    monkeypatch.setattr(cli, "_build_parser", recording)
    missing = str(tmp_path / "missing.json")
    monkeypatch.setattr(sys, "argv", ["casedraft", "validate", "--bundle", missing])
    assert main() == 2
    assert main(("summarize", "--store", missing)) == 0
    assert built == ["validate", "summarize"]
    assert capsys.readouterr().err.startswith("error: ")


# --- rejected input: one error line, exit 2, nothing written ---------------------

_ITEM_WITH_METHOD_STRING = {"item_id": "A", "kind": "physical_device", "acquisition_methods": "logical"}
_WRONG_BUNDLES = {
    "number": 5,
    "array": [5],
    "string": "x",
    "null": None,
    "received-date-number": {"mandate": {"received_date": 5}},
    "methods-string": {"items": [_ITEM_WITH_METHOD_STRING]},
}
_WRONG_CONFIGS = {
    "number": 5,
    "array": [5],
    "string": "x",
    "null": None,
    "profiles-array": {"profiles": []},
    "profile-number": {"profiles": {"m": 5}},
}
_WRONG_DRAFTS = {
    "number": 5,
    "null": None,
    "created-at-number": {"prompt_id": "p", "backend_label": "b", "text": "t", "created_at": 5},
}
_WRONG_ITEMS = {
    "number": 5,
    "array-of-number": [5],
    "null": None,
    "methods-string": [_ITEM_WITH_METHOD_STRING],
}


def _wrong_shape_cases():
    for command in ("validate", "matrix", "transform"):
        for name, doc in _WRONG_BUNDLES.items():
            yield pytest.param(command, "bundle", doc, id=f"{command}-bundle-{name}")
    for command in ("generate", "experiment"):
        for name, doc in _WRONG_CONFIGS.items():
            yield pytest.param(command, "config", doc, id=f"{command}-config-{name}")
    for command in ("score", "assemble"):
        for name, doc in _WRONG_DRAFTS.items():
            yield pytest.param(command, "draft", doc, id=f"{command}-draft-{name}")
    for name, doc in _WRONG_ITEMS.items():
        yield pytest.param("ingest", "items", doc, id=f"ingest-items-{name}")


@pytest.mark.parametrize("command,slot,doc", list(_wrong_shape_cases()))
def test_cli_rejects_a_json_document_of_the_wrong_shape(
    command, slot, doc, bundle_file, config_file, tmp_path, capsys
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    bundle = str(bad if slot == "bundle" else bundle_file)
    config = str(bad if slot == "config" else config_file)
    out = tmp_path / "out"
    argv = {
        "validate": ["validate", "--bundle", bundle],
        "matrix": ["matrix", "--bundle", bundle, "-o", str(out)],
        "transform": ["transform", "spatial", "--bundle", bundle, "-o", str(out)],
        "generate": ["generate", "--bundle", bundle, "--config", config, "--backend", "m",
                     "-o", str(out)],
        "experiment": ["experiment", "--bundle", bundle, "--config", config, "--backends", "m",
                       "--store", str(out)],
        "score": ["score", "--bundle", bundle, "--section", "introduction",
                  "--draft", str(bad), "-o", str(out)],
        "assemble": ["assemble", "--bundle", bundle, "-d", f"introduction={bad}", "-o", str(out)],
        "ingest": ["ingest", "--items", str(bad), "-o", str(out)],
    }[command]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_wrong_shape_errors_name_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_WRONG_BUNDLES["received-date-number"]), encoding="utf-8")
    assert main(["validate", "--bundle", str(bad)]) == 2
    assert capsys.readouterr().err == "error: Mandate.received_date: expected a string, got 5\n"
    bad.write_text(json.dumps(_WRONG_ITEMS["methods-string"]), encoding="utf-8")
    assert main(["ingest", "--items", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: items file: EvidenceItem.acquisition_methods: expected a JSON array, got 'logical'\n"
    )


@pytest.mark.parametrize("section,index,key,value,message", [
    pytest.param("locations", 0, "timestamp", "2019-02-30T14:33:44+00:00",
                 "LocationRecord.timestamp: day is out of range for month", id="no-such-day"),
    pytest.param("locations", 1, "timestamp", "14.02.2019",
                 "LocationRecord.timestamp: Invalid isoformat string: '14.02.2019'", id="not-iso"),
    pytest.param("messages", 0, "direction", "sideways",
                 "MessageRecord.direction: expected one of incoming, outgoing, system, got 'sideways'",
                 id="no-such-enum"),
])
def test_a_value_its_field_cannot_take_is_rejected_naming_the_field(
    section, index, key, value, message, bundle_file, capsys
):
    doc = json.loads(bundle_file.read_text(encoding="utf-8"))
    (records,) = doc[section].values()
    records[index][key] = value
    bundle_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--bundle", str(bundle_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_missing_field_is_rejected_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import casegen

    case = casegen.scaled_case(1, 200, tmp_path / "papers")
    bundle, items = tmp_path / "bundle.json", tmp_path / "items.json"
    assert main(["ingest", *case.ingest_args, "-o", str(bundle)]) == 0
    capsys.readouterr()
    doc = json.loads(bundle.read_text(encoding="utf-8"))
    del doc["items"][0]["kind"]
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    items.write_text(json.dumps(doc["items"]), encoding="utf-8")
    assert main(["validate", "--bundle", str(bundle)]) == 2
    assert capsys.readouterr().err == "error: EvidenceItem.kind: missing\n"
    assert main(["ingest", "--items", str(items)]) == 2
    assert capsys.readouterr().err == "error: items file: EvidenceItem.kind: missing\n"


def test_the_seed_1_scaled_case_on_the_benchmark_mocks_stores_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import casegen
    import run

    case = casegen.scaled_case(1, 200, tmp_path / "papers")
    profiles, _ = run.mock_backends(1)
    bundle, config, store = tmp_path / "bundle.json", tmp_path / "backends.json", tmp_path / "store.jsonl"
    config.write_text(json.dumps({"profiles": profiles}), encoding="utf-8")
    assert main(["ingest", *case.ingest_args, "-o", str(bundle)]) == 0
    assert main(["experiment", "--bundle", str(bundle), "--config", str(config),
                 "--backends", ",".join(profiles), "--store", str(store)]) == 0
    # every record the benchmark's scaled-mock case writes: any changed output byte changes it
    assert hashlib.sha256(store.read_bytes()).hexdigest() == (
        "0e8d2726a5a27ad89c45e21085b34c6ee2f1f60d52cbbb92391896edceafc529"
    )


@pytest.mark.parametrize("command", ["validate", "matrix", "experiment"])
def test_a_bundle_string_utf8_cannot_encode_is_rejected_naming_its_field(
    command, bundle_file, config_file, tmp_path, capsys
):
    text = bundle_file.read_text(encoding="utf-8")
    bundle_file.write_text(text.replace("Healy Hall", "Healy\\ud800Hall", 1), encoding="utf-8")
    bundle, out = str(bundle_file), tmp_path / "out"
    argv = {
        "validate": ["validate", "--bundle", bundle],
        "matrix": ["matrix", "--bundle", bundle, "-o", str(out)],
        "experiment": ["experiment", "--bundle", bundle, "--config", str(config_file),
                       "--backends", "mock", "--store", str(out)],
    }[command]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error: LocationRecord.related_location: expected a string UTF-8 can encode, got 'Healy\\ud800Hall"
    )
    assert not out.exists()


@pytest.mark.parametrize("corrupt", ['{"run_id": "run-0001", "backe', "[1, 2]"])
def test_store_line_that_is_no_record_names_its_line(corrupt, golden_bundle, tmp_path):
    store = tmp_path / "store.jsonl"
    run_experiment(golden_bundle, [MOCK], store)
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = corrupt + "\n"
    store.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"store\.jsonl:2: invalid record$"):
        list(iter_store(store))


# what a crash mid-append leaves behind: a final line cut short, also inside
# a character, or cut after a complete value that is no record
TORN_TAILS = pytest.mark.parametrize("tail", [
    pytest.param('{"run_id": "run-00', id="cut-short"),
    pytest.param('{"backend": "caf\u00e9"}'.encode()[:-3].decode("latin-1"), id="cut-in-a-character"),
    pytest.param("[1, 2]", id="no-record"),
    # json.loads takes a byte-order mark in bytes but not in text
    pytest.param('\xef\xbb\xbf{"b": 2}', id="utf-8-bom"),
])


def _write_torn(path, tail: str) -> bytes:
    good = b'{"a": 1}\n{"b": 2}\n'
    path.write_bytes(good + tail.encode("latin-1"))
    return good


def _one_record_run(bundle, store, tmp_path) -> bytes:
    """Append one record to store by a one-prompt mock run; return the
    bytes the same run writes to a store not yet made."""
    prompts = build_matrix(bundle)[:1]
    fresh = tmp_path / "fresh.jsonl"
    run_experiment(bundle, [MOCK], fresh, prompts)
    run_experiment(bundle, [MOCK], store, prompts)
    return fresh.read_bytes()


@TORN_TAILS
def test_iter_store_skips_a_torn_final_line(tail, tmp_path):
    store = tmp_path / "store.jsonl"
    _write_torn(store, tail)
    assert list(iter_store(store)) == [{"a": 1}, {"b": 2}]
    assert torn_line(store) == 3


@TORN_TAILS
def test_a_run_cuts_a_torn_final_line_off(tail, golden_bundle, tmp_path):
    store = tmp_path / "store.jsonl"
    good = _write_torn(store, tail)
    record = _one_record_run(golden_bundle, store, tmp_path)
    assert store.read_bytes() == good + record
    assert torn_line(store) is None


# the block size the reference below reads a store back from its end by;
# stores and tails longer than one block stay among the cases
_BLOCK = 1 << 16


@pytest.mark.parametrize("tail_bytes", [
    pytest.param(20, id="short-tail"),
    pytest.param(_BLOCK + 100, id="tail-longer-than-a-block"),
])
def test_a_torn_final_line_after_more_than_a_block_names_its_line(tail_bytes, golden_bundle, tmp_path):
    store = tmp_path / "store.jsonl"
    records = [{"n": i, "pad": "x" * 50} for i in range(2 * _BLOCK // 60 + 2)]
    _write_lines(store, records)
    good = store.read_bytes()
    assert len(good) > _BLOCK
    store.write_bytes(good + b'{"run_id": "' + b"r" * tail_bytes)
    assert torn_line(store) == len(records) + 1
    assert list(iter_store(store)) == records
    record = _one_record_run(golden_bundle, store, tmp_path)
    assert store.read_bytes() == good + record


def test_a_run_ends_a_final_record_without_its_newline_first(golden_bundle, tmp_path):
    store = tmp_path / "store.jsonl"
    store.write_bytes(b'{"a": 1}\n{"b": 2}')
    assert torn_line(store) is None
    assert list(iter_store(store)) == [{"a": 1}, {"b": 2}]
    record = _one_record_run(golden_bundle, store, tmp_path)
    assert store.read_bytes() == b'{"a": 1}\n{"b": 2}\n' + record


def _reference_tail(fh):
    """The store's final line when it lacks its newline, as (offset, bytes),
    found by reading back from the end a block at a time: the reference the
    forward walk of pipeline._unterminated_tail must agree with."""
    size = fh.seek(0, 2)
    if size == 0:
        return None
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return None
    start = size
    while start > 0:
        begin = max(0, start - _BLOCK)
        fh.seek(begin)
        cut = fh.read(start - begin).rfind(b"\n")
        if cut >= 0:
            start = begin + cut + 1
            break
        start = begin
    fh.seek(start)
    return start, fh.read(size - start)


def _reference_torn_line(path):
    with open(path, "rb") as fh:
        tail = _reference_tail(fh)
        if tail is None or not tail[1].strip() or pipeline._record(tail[1]) is not None:
            return None
        fh.seek(0)
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(_BLOCK), b"")) + 1


def _reference_append(path) -> None:
    with open(path, "a+b") as fh:
        tail = _reference_tail(fh)
        if tail is not None:
            start, line = tail
            if pipeline._record(line) is not None:
                fh.write(b"\n")
            else:
                fh.truncate(start)


_LONG = b'{"pad": "' + b"x" * (_BLOCK + 100) + b'"}'
_STORE_LINES = st.sampled_from([
    b'{"a": 1}\n', b"\n", b"  \n", b"[1, 2]\n", b'{"b": "caf\xc3\xa9"}\n', b"\xff\xfe\n",
    _LONG + b"\n",
])
_TAIL_STARTS = st.sampled_from([b"", b"  ", b'{"c": 3}', b'{"run_id": "run-00', b"[1]",
                                b"\xef\xbb\xbf{}", b'{"d": "caf\xc3', b"\xff", _LONG])
_TAIL_ENDS = st.sampled_from([b"", b"\n", b" ", b"x" * (_BLOCK + 100)])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_STORE_LINES, max_size=6), start=_TAIL_STARTS, end=_TAIL_ENDS)
def test_the_forward_walk_finds_the_tail_the_backward_block_scan_found(lines, start, end):
    content = b"".join(lines) + start + end
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours.jsonl"), Path(tmp, "theirs.jsonl")
        ours.write_bytes(content)
        theirs.write_bytes(content)
        assert torn_line(ours) == _reference_torn_line(theirs)
        with pipeline._appending(ours):
            pass
        _reference_append(theirs)
        assert ours.read_bytes() == theirs.read_bytes()


def test_cli_experiment_and_summarize_warn_of_a_torn_final_line(bundle_file, config_file, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    argv = ["experiment", "--bundle", str(bundle_file), "--config", str(config_file),
            "--backends", "mock", "--store", str(store)]
    assert main(argv) == 0
    whole = store.read_bytes()
    store.write_bytes(whole + b'{"run_id": "run-00')
    capsys.readouterr()
    warning = f"{store}:37: warning: torn final line is not a record; skipped\n"

    assert main(["summarize", "--store", str(store), "-o", str(tmp_path / "summary.txt")]) == 0
    assert capsys.readouterr().err == warning
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert "appended 36 records" in captured.out and "run-0002" in captured.out
    records = list(iter_store(store))
    assert [r["run_id"] for r in records] == ["run-0001"] * 36 + ["run-0002"] * 36
    assert store.read_bytes().startswith(whole) and store.read_bytes().endswith(b"}\n")
    assert main(["summarize", "--store", str(store), "-o", str(tmp_path / "summary.txt")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_store_with_a_corrupt_middle_line_is_rejected(bundle_file, config_file, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    argv = ["experiment", "--bundle", str(bundle_file), "--config", str(config_file),
            "--backends", "mock", "--store", str(store)]
    assert main(argv) == 0
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[18] = lines[18][:40] + "\n"  # line 19 of 36, cut short
    store.write_text("".join(lines), encoding="utf-8")
    before = store.read_bytes()
    capsys.readouterr()

    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {store}:19: invalid record\n"
    assert store.read_bytes() == before
    assert main(["summarize", "--store", str(store), "-o", str(tmp_path / "summary.txt")]) == 2
    assert capsys.readouterr().err == f"error: {store}:19: invalid record\n"
    assert not (tmp_path / "summary.txt").exists()


def test_cli_store_with_a_line_nested_too_deeply_is_rejected(bundle_file, config_file, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    argv = ["experiment", "--bundle", str(bundle_file), "--config", str(config_file),
            "--backends", "mock", "--store", str(store)]
    assert main(argv) == 0
    lines = store.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"x": ' + b"[" * 5000 + b"]" * 5000 + b"}\n"
    store.write_bytes(b"".join(lines))
    before = store.read_bytes()
    capsys.readouterr()

    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {store}:2: invalid record\n"
    assert store.read_bytes() == before
    assert main(["summarize", "--store", str(store), "-o", str(tmp_path / "summary.txt")]) == 2
    assert capsys.readouterr().err == f"error: {store}:2: invalid record\n"
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize("lines, problem", [
    (['{"prompt": 5}'], "AttributeError: 'int' object has no attribute 'get'"),
    (['{"record_kind": "result", "prompt": {}, "draft": {"latency_s": "x"}, '
      '"grounding": {"hallucination_count": 1, "completeness": 1}}'],
     "TypeError: can't convert type 'str'"),
    (['{"record_kind": "error", "backend": 5}', '{"record_kind": "error", "backend": "a"}'],
     "TypeError: backend, section or format is no string in (5, '?', '?')"),
    # a record neither a result nor an error is no error record
    (['{"backend": "m", "prompt": {}, "draft": {"latency_s": 0.5}, '
      '"grounding": {"hallucination_count": 0, "completeness": 1.0}}'],
     "TypeError: record_kind is neither result nor error: None\n"),
    (['{"record_kind": "error", "backend": "m"}', '{"record_kind": "Result", "backend": "m"}'],
     "TypeError: record_kind is neither result nor error: 'Result'\n"),
    (['{"record_kind": ["result"], "backend": "m"}'],
     "TypeError: record_kind is neither result nor error: ['result']\n"),
])
def test_cli_summarize_rejects_a_store_record_of_the_wrong_shape(lines, problem, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    store.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    before = store.read_bytes()
    out = tmp_path / "summary.txt"
    assert main(["summarize", "--store", str(store), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a store record has the wrong shape: {problem}")
    assert err.count("\n") == 1
    assert store.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("field", ["latency_s", "hallucination_count", "completeness"])
def test_cli_summarize_rejects_true_or_false_where_a_number_belongs(field, tmp_path, capsys):
    record = {"record_kind": "result", "backend": "m",
              "prompt": {"section": "introduction", "input_format": "mandate_text"},
              "draft": {"latency_s": 0.5}, "grounding": {"hallucination_count": 1, "completeness": 0.5}}
    (record["draft"] if field == "latency_s" else record["grounding"])[field] = True
    store = tmp_path / "store.jsonl"
    store.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "summary.txt"
    assert main(["summarize", "--store", str(store), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: a store record has the wrong shape: TypeError: "
        f"{field} is true or false, not a number, in ('m', 'introduction', 'mandate_text')\n"
    )
    assert not out.exists()


def test_cli_experiment_rejects_a_store_record_whose_run_id_is_a_list(
    bundle_file, config_file, tmp_path, capsys
):
    store = tmp_path / "store.jsonl"
    store.write_text('{"run_id": ["x"]}\n', encoding="utf-8")
    rc = main(["experiment", "--bundle", str(bundle_file), "--config", str(config_file),
               "--backends", "mock", "--store", str(store)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: a store record has the wrong shape: TypeError: unhashable type: 'list'\n"
    )
    assert store.read_text(encoding="utf-8") == '{"run_id": ["x"]}\n'


def _experiment_with_a_bad_profile(bundle_file, tmp_path, **bad):
    config = tmp_path / "bad_backends.json"
    config.write_text(json.dumps({"profiles": {
        "mock": {"kind": "mock"},
        "bad": {"kind": "local_generate", **bad},
    }}), encoding="utf-8")
    store = tmp_path / "store.jsonl"
    rc = main(["experiment", "--bundle", str(bundle_file), "--config", str(config),
               "--backends", "mock,bad", "--store", str(store)])
    return rc, store


def test_cli_experiment_records_an_unsendable_request_as_errors(bundle_file, tmp_path, capsys):
    rc, store = _experiment_with_a_bad_profile(bundle_file, tmp_path, endpoint_url="localhost:1")
    assert rc == 0
    assert "appended 72 records" in capsys.readouterr().out
    records = list(iter_store(store))
    assert len(records) == 72
    errors = [r for r in records if r["record_kind"] == "error"]
    assert len(errors) == 36 and all(r["backend"] == "bad" for r in errors)


@pytest.mark.parametrize("entry, problem", [
    ({}, "missing"),
    ({"kind": "quantum"}, "expected one of local_generate, hosted_chat, mock, got 'quantum'"),
])
def test_cli_experiment_names_a_profile_without_a_known_kind(
    entry, problem, bundle_file, tmp_path, capsys
):
    config = tmp_path / "bad_backends.json"
    config.write_text(json.dumps({"profiles": {"mock": {"kind": "mock"}, "bad": entry}}),
                      encoding="utf-8")
    store = tmp_path / "store.jsonl"
    rc = main(["experiment", "--bundle", str(bundle_file), "--config", str(config),
               "--backends", "mock", "--store", str(store)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: profile 'bad': BackendConfig.kind: {problem}\n"
    assert not store.exists()


def test_cli_experiment_rejects_a_non_string_endpoint(bundle_file, tmp_path, capsys):
    rc, store = _experiment_with_a_bad_profile(bundle_file, tmp_path, endpoint_url=5)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: profile 'bad': BackendConfig.endpoint_url: expected a string, got 5\n"
    assert not store.exists()


@pytest.mark.parametrize("fields, problem", [
    # a closed port: each failed attempt would sleep for a negative time
    ({"endpoint_url": "http://127.0.0.1:1", "retry_backoff": -1, "max_retries": 1},
     "retry_backoff: expected a finite number of at least 0, got -1"),
    # json reads NaN, which no request can be sent with
    ({"timeout": math.nan}, "timeout: expected a finite number above 0, got nan"),
    ({"temperature": math.inf}, "temperature: expected a finite number, got inf"),
])
def test_cli_experiment_rejects_an_out_of_range_profile_number_before_any_draft(
    fields, problem, bundle_file, tmp_path, capsys
):
    rc, store = _experiment_with_a_bad_profile(bundle_file, tmp_path, **fields)
    assert rc == 2
    assert capsys.readouterr().err == f"error: profile 'bad': BackendConfig.{problem}\n"
    assert not store.exists()


def test_cli_experiment_rejects_a_hosted_profile_without_an_endpoint(bundle_file, tmp_path, capsys):
    # were it loaded, each of the 36 prompts would fail on a relative URL
    rc, store = _experiment_with_a_bad_profile(bundle_file, tmp_path, kind="hosted_chat")
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: profile 'bad': BackendConfig.endpoint_url: expected a URL for hosted_chat, got ''\n"
    )
    assert not store.exists()
