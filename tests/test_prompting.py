"""Input rendering, request phrasings, and the 36-prompt matrix."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from functools import partial
from operator import attrgetter

import pytest

from casedraft.ingest import (
    SourceFormat,
    parse_csv_locations,
    parse_csv_messages,
    parse_lablog_locations,
    parse_lablog_messages,
    parse_mandate,
    parse_tool_report_locations,
    parse_tool_report_messages,
)
from casedraft.model import ReportSectionKind
from casedraft.prompting import (
    DRAFTED,
    Placement,
    PromptTopic,
    PromptVariant,
    SummaryMode,
    build_matrix,
    build_prompt,
    matrix_to_json,
    render_csv_locations,
    render_input,
    render_lablog_locations,
    render_lablog_messages,
    render_mandate_text,
    render_tool_report_locations,
    render_tool_report_messages,
    request_sentence,
)
from casedraft.transform import reduce_to_csv

from conftest import read_fixture

INTRO_REQUEST = (
    "Can you summarize the previous text and write the intro of a forensic "
    "report for me? I need important elements of the description, the mandate, "
    "the questions asked (all of them), and the investigator of the case!"
)


# --- mandate rendering --------------------------------------------------------

def test_mandate_text_shape(golden_bundle):
    text = render_mandate_text(golden_bundle)
    assert text.startswith("Date: 01.10.2023")
    for question in golden_bundle.mandate.questions:
        assert question in text
    assert "i. Where was Mr Sforza" in text
    assert "v. In particular" in text
    assert "before the 12th of October 2023." in text
    assert "the investigator X." in text


def test_mandate_round_trip(golden_bundle):
    parsed, diags = parse_mandate(render_mandate_text(golden_bundle))
    assert [d for d in diags] == []
    original = golden_bundle.mandate
    assert parsed.questions == original.questions
    assert parsed.received_date == original.received_date
    assert parsed.deadline == original.deadline
    assert parsed.investigator_name == original.investigator_name
    assert set(parsed.suspects) == set(original.suspects)
    assert parsed.transmitted_items == original.transmitted_items


def test_mandate_item_details_round_trip(golden_bundle):
    text = render_mandate_text(golden_bundle, with_item_details=True)
    assert "Item S1: Samsung Galaxy S6 Edge (physical device)" in text
    assert "MAC address AC:5F:3E:73:E3:78" in text
    assert "acquisition: logical, file system" in text
    parsed, _ = parse_mandate(text)
    assert len(parsed.transmitted_items) == 2
    assert parsed.questions == golden_bundle.mandate.questions


# --- record rendering round trips ----------------------------------------------

def test_tool_report_locations_round_trip(golden_bundle):
    records = golden_bundle.all_locations()
    for french in (False, True):
        text = render_tool_report_locations(records, french_labels=french)
        again, diags = parse_tool_report_locations(text)
        assert [d for d in diags] == []
        assert [r.name for r in again] == [r.name for r in records]
        assert [r.timestamp for r in again] == [r.timestamp for r in records]
        for a, b in zip(again, records):
            assert a.latitude == pytest.approx(b.latitude, abs=1e-6)
            assert a.longitude == pytest.approx(b.longitude, abs=1e-6)


def test_french_labels_switch_decimal_marks(golden_bundle):
    text = render_tool_report_locations(golden_bundle.all_locations(), french_labels=True)
    assert "(38,907500, -77,072778)" in text


def test_lablog_locations_round_trip(golden_bundle):
    records = golden_bundle.all_locations()
    text = render_lablog_locations(records)
    again, diags = parse_lablog_locations(text)
    assert [d for d in diags] == []
    assert again == list(records)


def test_tool_report_messages_round_trip(golden_bundle):
    records = golden_bundle.all_messages()
    text = render_tool_report_messages(records)
    again, diags = parse_tool_report_messages(text)
    assert [d.severity.value for d in diags if d.severity.value == "error"] == []
    assert [m.body for m in again] == [m.body for m in records]
    assert [m.timestamp for m in again] == [m.timestamp for m in records]
    assert [m.sender for m in again] == [m.sender for m in records]
    assert [m.source_files for m in again] == [m.source_files for m in records]


def test_lablog_messages_round_trip(golden_bundle):
    records = golden_bundle.all_messages()
    text = render_lablog_messages(records)
    again, diags = parse_lablog_messages(text)
    assert [d for d in diags] == []
    assert again == list(records)


def test_csv_locations_round_trip(golden_bundle):
    records = golden_bundle.all_locations()
    text = render_csv_locations(records)
    assert text.splitlines()[0].startswith("Name ")
    again, diags = parse_csv_locations(text)
    assert [d for d in diags] == []
    assert [r.name for r in again] == [r.name for r in records]
    assert [r.related_location for r in again] == [r.related_location for r in records]
    assert [r.latitude for r in again] == [r.latitude for r in records]


def _location_records() -> list:
    """The tool report's locations, which carry sources and sizes, and
    variants of its first: a source with no size, no category, neither,
    no source at all, and a related location."""
    records, _ = parse_tool_report_locations(read_fixture("tool_report_locations.txt"))
    first = records[0]
    return records + [
        replace(first, size_bytes=None),
        replace(first, category=""),
        replace(first, size_bytes=None, category=""),
        replace(first, source_file=None, size_bytes=None),
        replace(first, related_location="Healy Hall, 37th St NW, Washington"),
    ]


def _message_records(golden_bundle) -> list:
    """The tool report's messages, which carry directions and sources, the
    golden bundle's, which carry no direction, and one marked deleted."""
    records, _ = parse_tool_report_messages(read_fixture("tool_report_messages.txt"))
    golden = list(golden_bundle.all_messages())
    return records + golden + [replace(golden[1], deleted=True)]


_LOCATED = ("name", "timestamp", "latitude", "longitude")
_SENT = ("body", "timestamp", "sender")
_TOOL_LOCATIONS = _LOCATED + ("category", "source_file", "size_bytes")
_TOOL_MESSAGES = _SENT + ("direction", "source_files", "app")


@pytest.mark.parametrize("render,parse,kind,carried", [
    pytest.param(render_tool_report_locations, parse_tool_report_locations, "locations",
                 _TOOL_LOCATIONS, id="tool-report-locations"),
    pytest.param(partial(render_tool_report_locations, french_labels=True),
                 parse_tool_report_locations, "locations", _TOOL_LOCATIONS,
                 id="tool-report-locations-french"),
    pytest.param(render_lablog_locations, parse_lablog_locations, "locations",
                 _LOCATED + ("category", "related_location"), id="lablog-locations"),
    pytest.param(render_csv_locations, parse_csv_locations, "locations",
                 _LOCATED + ("related_location",), id="csv-locations"),
    pytest.param(render_tool_report_messages, parse_tool_report_messages, "messages",
                 _TOOL_MESSAGES, id="tool-report-messages"),
    pytest.param(partial(render_tool_report_messages, french_labels=True),
                 parse_tool_report_messages, "messages", _TOOL_MESSAGES,
                 id="tool-report-messages-french"),
    pytest.param(render_lablog_messages, parse_lablog_messages, "messages",
                 _SENT + ("deleted", "source_files", "app"), id="lablog-messages"),
    pytest.param(reduce_to_csv, parse_csv_messages, "messages", _SENT, id="csv-messages"),
])
def test_each_results_layout_reads_back_every_field_it_carries(
    render, parse, kind, carried, golden_bundle
):
    records = _location_records() if kind == "locations" else _message_records(golden_bundle)
    again, diags = parse(render(records))
    fields = attrgetter(*carried)
    assert [fields(r) for r in again] == [fields(r) for r in records]
    # the tool report gives a category a line of its own, and an empty one none
    no_category = [
        f"entry {n} has no category line" for n, r in enumerate(records, start=1)
        if carried == _TOOL_LOCATIONS and not r.category
    ]
    assert [d.message for d in diags] == no_category


# the two fields a layout loses: a renderer that starts or stops carrying
# one fails here
def test_the_lablog_message_layout_reads_deleted_false_back_as_unknown(golden_bundle):
    first = golden_bundle.all_messages()[0]
    records = [replace(first, deleted=deleted) for deleted in (False, True, None)]
    again, diags = parse_lablog_messages(render_lablog_messages(records))
    assert diags == []
    assert again == [replace(first, deleted=deleted) for deleted in (None, True, None)]


@pytest.mark.parametrize("french_labels", [False, True])
def test_the_tool_report_location_layout_reads_no_related_location_back(french_labels):
    records, _ = parse_tool_report_locations(read_fixture("tool_report_locations.txt"))
    record = replace(records[0], related_location="Healy Hall, 37th St NW, Washington")
    again, diags = parse_tool_report_locations(render_tool_report_locations([record], french_labels))
    assert diags == []
    assert again == [replace(record, related_location=None)]


# --- request sentences ----------------------------------------------------------

def test_introduction_request_sentence_pinned():
    assert request_sentence(ReportSectionKind.INTRODUCTION, 0) == INTRO_REQUEST


def test_results_request_depends_on_summary_mode():
    overall = request_sentence(ReportSectionKind.RESULTS, 0, SummaryMode.OVERALL)
    daily = request_sentence(ReportSectionKind.RESULTS, 0, SummaryMode.DAY_BY_DAY)
    assert overall != daily
    assert "day-by-day" in daily


def test_unknown_phrasing_raises():
    with pytest.raises((KeyError, IndexError, ValueError)):
        request_sentence(ReportSectionKind.INTRODUCTION, 99)


# --- prompt assembly -------------------------------------------------------------

def test_build_prompt_placements(golden_bundle):
    text = render_input(golden_bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT)
    first = build_prompt(
        ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text,
        PromptVariant(placement=Placement.REQUEST_FIRST),
    )
    last = build_prompt(
        ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text,
        PromptVariant(placement=Placement.REQUEST_LAST),
    )
    assert first.rendered_text.startswith(INTRO_REQUEST)
    assert first.rendered_text.endswith(text)
    assert last.rendered_text.startswith(text)
    assert last.rendered_text.endswith(INTRO_REQUEST)
    assert first.input_block() == text
    assert last.input_block() == text
    assert first.prompt_id != last.prompt_id


def test_prompt_id_is_stable_and_content_derived(golden_bundle):
    text = render_input(golden_bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT)
    variant = PromptVariant(placement=Placement.REQUEST_FIRST)
    a = build_prompt(ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text, variant)
    b = build_prompt(ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text, variant)
    assert a.prompt_id == b.prompt_id
    assert len(a.prompt_id) == 16
    int(a.prompt_id, 16)  # hex digest prefix
    c = build_prompt(
        ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text + " ", variant
    )
    assert c.prompt_id != a.prompt_id


def test_render_input_rejects_illegal_pairs(golden_bundle):
    with pytest.raises(ValueError):
        render_input(golden_bundle, ReportSectionKind.INTRODUCTION, SourceFormat.REDUCED_CSV)
    with pytest.raises(ValueError):
        render_input(golden_bundle, ReportSectionKind.RESULTS, SourceFormat.LAB_LOG_TABLE)


# --- the drafting plan ------------------------------------------------------------

# the paper's schema: each section's input formats in matrix order; None
# marks a section left to the examiner
EXPECTED_PLAN = {
    ReportSectionKind.INTRODUCTION: (SourceFormat.MANDATE_TEXT,),
    ReportSectionKind.ITEMS_RECEIVED: (SourceFormat.MANDATE_TEXT,),
    ReportSectionKind.METHODOLOGY: (SourceFormat.LAB_LOG_TABLE,),
    ReportSectionKind.RESULTS: (
        SourceFormat.TOOL_REPORT_EXCERPT, SourceFormat.LAB_LOG_TABLE, SourceFormat.REDUCED_CSV,
    ),
    ReportSectionKind.DISCUSSION: None,
    ReportSectionKind.CONCLUSION: None,
}


@pytest.mark.parametrize("kind", list(ReportSectionKind))
def test_drafting_plan_matches_schema(golden_bundle, kind):
    formats = EXPECTED_PLAN[kind]
    assert DRAFTED.get(kind) == formats
    for fmt in SourceFormat:
        if formats is not None and fmt in formats:
            assert render_input(golden_bundle, kind, fmt, PromptTopic.LOCATIONS)
        else:
            with pytest.raises(ValueError):
                render_input(golden_bundle, kind, fmt, PromptTopic.LOCATIONS)
    # the matrix drafts the section from exactly those formats, in that order
    drafted = [p.input_format for p in build_matrix(golden_bundle) if p.section is kind]
    assert tuple(dict.fromkeys(drafted)) == (formats or ())


# --- the matrix -------------------------------------------------------------------

def test_matrix_has_36_distinct_prompts(golden_bundle):
    matrix = build_matrix(golden_bundle)
    assert len(matrix) == 36
    assert len({p.prompt_id for p in matrix}) == 36


def test_matrix_breakdown(golden_bundle):
    matrix = build_matrix(golden_bundle)
    by_section = Counter(p.section for p in matrix)
    assert by_section[ReportSectionKind.INTRODUCTION] == 4
    assert by_section[ReportSectionKind.ITEMS_RECEIVED] == 4
    assert by_section[ReportSectionKind.METHODOLOGY] == 4
    assert by_section[ReportSectionKind.RESULTS] == 24
    results = [p for p in matrix if p.section is ReportSectionKind.RESULTS]
    by_topic = Counter(p.topic for p in results)
    assert by_topic[PromptTopic.CONVERSATIONS] == 12
    assert by_topic[PromptTopic.LOCATIONS] == 12
    by_format = Counter(p.input_format for p in results)
    assert set(by_format.values()) == {8}
    assert all(p.summary_mode is not None for p in results)


def test_matrix_early_sections_vary_phrasing_and_placement(golden_bundle):
    matrix = build_matrix(golden_bundle)
    intro = [p for p in matrix if p.section is ReportSectionKind.INTRODUCTION]
    combos = {(p.phrasing_id, p.placement) for p in intro}
    assert combos == {
        (0, Placement.REQUEST_FIRST),
        (0, Placement.REQUEST_LAST),
        (1, Placement.REQUEST_FIRST),
        (1, Placement.REQUEST_LAST),
    }


def test_matrix_is_deterministic(golden_bundle):
    first = build_matrix(golden_bundle)
    second = build_matrix(golden_bundle)
    assert [p.prompt_id for p in first] == [p.prompt_id for p in second]
    assert [p.rendered_text for p in first] == [p.rendered_text for p in second]


def test_matrix_json_round_trip(golden_bundle):
    matrix = build_matrix(golden_bundle)
    rows = json.loads(matrix_to_json(matrix))
    assert len(rows) == 36
    assert rows[0]["prompt_id"] == matrix[0].prompt_id
    assert {"section", "input_format", "topic", "rendered_text"} <= set(rows[0])


def test_french_labels_change_results_prompts_only(golden_bundle):
    plain = build_matrix(golden_bundle)
    french = build_matrix(golden_bundle, french_labels=True)
    assert len(french) == 36
    changed = [
        (a.section, a.input_format)
        for a, b in zip(plain, french)
        if a.prompt_id != b.prompt_id
    ]
    assert changed  # tool-report renderings carry language-sensitive labels
    assert all(s is ReportSectionKind.RESULTS for s, _ in changed)
