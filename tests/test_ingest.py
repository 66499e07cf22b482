"""Parsers for the four source layouts, pinned to the golden excerpts."""

from __future__ import annotations

from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

import pytest

from casedraft.ingest import (
    Severity,
    parse_csv_locations,
    parse_csv_messages,
    parse_device_profile,
    parse_lablog_locations,
    parse_lablog_messages,
    parse_mandate,
    parse_method_steps,
    parse_tool_report_locations,
    parse_tool_report_messages,
)
from casedraft.model import Direction, LocationRecord, MessageRecord, Sender
from casedraft.prompting import (
    render_csv_locations,
    render_lablog_locations,
    render_lablog_messages,
    render_tool_report_locations,
    render_tool_report_messages,
)
from casedraft.transform import reduce_to_csv

from conftest import read_fixture

UTC = timezone.utc
MINUS5 = timezone(timedelta(hours=-5))
PLUS1 = timezone(timedelta(hours=1))


def errors(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


# --- tool-report locations ---------------------------------------------------

def test_tool_report_locations_golden():
    records, diags = parse_tool_report_locations(read_fixture("tool_report_locations.txt"))
    assert errors(diags) == []
    assert len(records) == 3

    first = records[0]
    assert first.name == "20190214_143344.jpg"
    assert first.timestamp == datetime(2019, 2, 14, 14, 33, 44, tzinfo=UTC)
    assert (first.latitude, first.longitude) == (38.9075, -77.072778)
    assert first.category == "Media Locations"
    assert first.size_bytes == 4894559
    assert "20190214_143344.jpg" in first.source_file

    # second entry uses comma decimal marks; values must normalize identically
    second = records[1]
    assert (second.latitude, second.longitude) == (38.9075, -77.072778)
    assert second.size_bytes == 4239509

    third = records[2]
    assert third.timestamp == datetime(2019, 2, 14, 14, 29, 1, tzinfo=UTC)
    assert (third.latitude, third.longitude) == (38.906944, -77.0725)
    assert third.size_bytes == 3756708


def test_tool_report_locations_empty_text_is_quiet():
    records, diags = parse_tool_report_locations("")
    assert records == []
    assert diags == []


def test_tool_report_entry_without_timestamp_dropped_with_error():
    text = "1 (38.9075, -77.0727) Name: x.jpg\nSome Category\n"
    records, diags = parse_tool_report_locations(text)
    assert records == []
    assert len(errors(diags)) == 1


def test_tool_report_locations_comment_lines_skipped():
    text = read_fixture("tool_report_locations.txt")
    assert text.lstrip().startswith("#")
    records, _ = parse_tool_report_locations(text)
    assert len(records) == 3


# --- lab-log locations -------------------------------------------------------

def test_lablog_locations_golden():
    records, diags = parse_lablog_locations(read_fixture("lablog_locations.txt"))
    assert errors(diags) == []
    assert len(records) == 3

    first = records[0]
    assert first.name == "20190214_143344.jpg"
    assert first.timestamp == datetime(2019, 2, 14, 14, 33, 44, tzinfo=UTC)
    assert (first.latitude, first.longitude) == (38.9075, -77.0727777777778)
    assert first.category == "Media Locations"
    assert first.related_location == (
        "Healy Hall, 37th St NW, Washington, District of Columbia"
    )

    # third row separates latitude and longitude by spaces, not tabs
    third = records[2]
    assert (third.latitude, third.longitude) == (38.9069444444444, -77.0725)
    assert third.related_location == (
        "Northwest Washington, Washington, District of Columbia"
    )


def test_lablog_locations_header_only_is_clean():
    header = read_fixture("lablog_locations.txt").splitlines()[0]
    records, diags = parse_lablog_locations(header)
    assert records == []
    assert diags == []


def test_lablog_locations_missing_header_is_error():
    rows = "\n".join(read_fixture("lablog_locations.txt").splitlines()[1:])
    records, diags = parse_lablog_locations(rows)
    assert len(records) == 3  # rows still recovered
    assert len(errors(diags)) == 1


def test_lablog_locations_bad_row_warns_and_skips():
    text = read_fixture("lablog_locations.txt") + "\nnot a location row at all\n"
    records, diags = parse_lablog_locations(text)
    assert len(records) == 3
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 1
    assert errors(diags) == []


def test_lablog_locations_non_numeric_latitude_warns_and_skips():
    text = (
        "Name\tTime\tCategory\tLatitude\tLongitude\tRelated Location\n"
        "a.jpg\t14.02.2019 14:33:44\tMedia Locations\tnorth\t-77.0725\tSomewhere\n"
    )
    records, diags = parse_lablog_locations(text)
    assert records == []
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 1


# --- tool-report messages ----------------------------------------------------

def test_tool_report_messages_golden():
    records, diags = parse_tool_report_messages(read_fixture("tool_report_messages.txt"))
    assert errors(diags) == []
    assert len(records) == 3

    first = records[0]
    assert first.body == "Wonder Woman created the group Secret"
    assert first.timestamp == datetime(2019, 2, 5, 12, 16, tzinfo=UTC)
    assert first.sender is None
    assert first.direction is Direction.INCOMING
    assert len(first.source_files) == 1
    assert "cache4.db" in first.source_files[0]

    second = records[1]
    assert second.body == "Han, Obi Wan, This mission will be tricky and we need the best!"
    assert second.sender.identifier == "695862679"
    assert second.sender.display_name == "Wonder Woman"
    assert len(second.source_files) == 2
    assert "cache4.db-wal" in second.source_files[1]

    # the third entry labels its direction in French
    third = records[2]
    assert third.direction is Direction.INCOMING
    assert third.timestamp == datetime(2019, 2, 5, 12, 17, tzinfo=UTC)
    assert third.body.startswith("A package is waiting for you at the Krystal")


def test_tool_report_messages_empty_text_is_quiet():
    records, diags = parse_tool_report_messages("")
    assert records == []
    assert diags == []


# --- lab-log messages --------------------------------------------------------

def test_lablog_messages_golden():
    records, diags = parse_lablog_messages(read_fixture("lablog_messages.txt"))
    assert errors(diags) == []
    assert len(records) == 3

    first = records[0]
    assert first.body == "Wonder Woman created the group Secret"
    assert first.timestamp == datetime(2019, 2, 5, 7, 16, 4, tzinfo=MINUS5)
    assert first.sender is None

    second = records[1]
    assert second.timestamp == datetime(2019, 2, 5, 7, 16, 54, tzinfo=MINUS5)
    assert second.sender.identifier == "695862679"
    assert second.sender.display_name == "Wonder Woman"
    assert len(second.source_files) == 2

    third = records[2]
    assert third.timestamp == datetime(2019, 2, 5, 7, 17, 49, tzinfo=MINUS5)
    assert third.body.endswith("near Union Park.")


def test_lablog_messages_empty_text_is_quiet():
    records, diags = parse_lablog_messages("")
    assert records == []
    assert diags == []


# --- reduced CSV -------------------------------------------------------------

def test_csv_messages_golden():
    records, diags = parse_csv_messages(read_fixture("csv_messages.txt"))
    assert errors(diags) == []
    assert len(records) == 3

    assert records[0].body == "Wonder Woman created the group Secret"
    assert records[0].timestamp == datetime(2019, 2, 5, 7, 16, 4, tzinfo=MINUS5)

    # continuation row folds into the previous body on a new line
    assert records[1].body == (
        "Han, Obi Wan,\nThis mission will be tricky and we need the best!"
    )
    assert records[1].sender.identifier == "695862679"

    assert records[2].timestamp == datetime(2019, 2, 5, 7, 17, 49, tzinfo=MINUS5)


def test_csv_without_delimiter_is_error():
    records, diags = parse_csv_messages("just a plain sentence\n")
    assert records == []
    assert len(errors(diags)) == 1


def test_csv_orphan_continuation_is_error():
    text = (
        "From ; Body ; Timestamp: Time\n"
        " ; stray continuation ;\n"
    )
    records, diags = parse_csv_messages(text)
    assert records == []
    assert len(errors(diags)) == 1


# --- device profiles ---------------------------------------------------------

def test_device_profile_two_layouts_agree():
    lab, lab_diags = parse_device_profile(read_fixture("device_lablog.txt"))
    tool, tool_diags = parse_device_profile(read_fixture("device_toolreport.txt"))
    assert errors(lab_diags) == []
    assert errors(tool_diags) == []
    assert lab == tool
    assert lab.vendor == "Samsung"
    assert lab.model_code == "SM-G925F"
    assert lab.os_version == "6.0.1"
    assert lab.mac_address == "AC:5F:3E:73:E3:78"
    assert lab.timezone == "America/New_York"


def test_device_profile_unknown_row_warns():
    _, diags = parse_device_profile(read_fixture("device_lablog.txt"))
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 1  # the free-standing title line


def test_device_profile_missing_model_is_error():
    _, diags = parse_device_profile("Detected Phone Vendor   Samsung\n")
    assert len(errors(diags)) == 1


# --- mandates ----------------------------------------------------------------

def test_short_mandate_golden():
    mandate, diags = parse_mandate(read_fixture("short_mandate.txt"))
    assert errors(diags) == []
    assert mandate.received_date == date(2023, 10, 1)
    assert mandate.deadline == date(2023, 10, 12)
    assert mandate.investigator_name == "X"
    assert set(mandate.suspects) == {"Mr Sforza", "Mr Pressive"}
    assert len(mandate.questions) >= 1
    assert mandate.questions[0].startswith("Where was Mr Sforza")


def test_full_mandate_golden():
    mandate, diags = parse_mandate(read_fixture("full_mandate.txt"))
    assert errors(diags) == []
    assert len(mandate.questions) == 5
    assert mandate.questions[0] == "Where was Mr Sforza in January and February 2019?"
    assert mandate.questions[2] == "Did Mr Sforza and Mr Pressive meet during this period?"
    assert mandate.questions[4].startswith("In particular, are Mr Sforza and/or Mr Pressive")
    assert mandate.deadline == date(2023, 10, 12)
    assert mandate.transmitted_items == (
        "One Samsung Galaxy S6 Edge smartphone",
        "One Apple iPhone 6 smartphone",
    )


def test_empty_mandate_two_errors():
    mandate, diags = parse_mandate("")
    assert mandate.questions == ()
    assert len(errors(diags)) == 2


# --- method steps ------------------------------------------------------------

def test_method_steps_golden():
    steps, diags = parse_method_steps(read_fixture("method_steps.txt"))
    assert errors(diags) == []
    assert [s.ordinal for s in steps] == [1, 2, 3, 4, 5]
    assert steps[0].tool_name is None
    assert steps[3].tool_name == "Cellebrite UFED Physical Analyzer"
    assert steps[3].tool_version == "7.3.0.75"
    assert steps[4].action == "Manually captured Telegram messages from the iPhone 6"


def test_method_steps_empty_is_error():
    steps, diags = parse_method_steps("")
    assert steps == []
    assert len(errors(diags)) == 1


# --- shared behaviors --------------------------------------------------------

@pytest.mark.parametrize(
    "name,parser",
    [
        ("tool_report_locations.txt", parse_tool_report_locations),
        ("lablog_locations.txt", parse_lablog_locations),
        ("tool_report_messages.txt", parse_tool_report_messages),
        ("lablog_messages.txt", parse_lablog_messages),
        ("csv_messages.txt", parse_csv_messages),
    ],
)
def test_parsing_is_idempotent(name, parser):
    text = read_fixture(name)
    assert parser(text) == parser(text)


@pytest.mark.parametrize(
    "name,parser",
    [
        ("tool_report_locations.txt", parse_tool_report_locations),
        ("lablog_locations.txt", parse_lablog_locations),
        ("tool_report_messages.txt", parse_tool_report_messages),
        ("lablog_messages.txt", parse_lablog_messages),
        ("csv_messages.txt", parse_csv_messages),
    ],
)
def test_every_record_carries_an_aware_timestamp(name, parser):
    records, _ = parser(read_fixture(name))
    for record in records:
        assert record.timestamp.tzinfo is not None
        assert record.timestamp.utcoffset() is not None


_LOCATIONS = [
    LocationRecord(f"{k}.jpg", datetime(2019, 2, 14, 14, k, 4, tzinfo=PLUS1), "Media", 38.9, -77.0)
    for k in (1, 2)
]
_MESSAGES = [
    MessageRecord(
        f"body {k}", datetime(2019, 2, 5, 12, k, 4, tzinfo=PLUS1),
        sender=Sender("695862679"), direction=Direction.INCOMING,
    )
    for k in (1, 2)
]


@pytest.mark.parametrize(
    "render,parser,records",
    [
        (render_tool_report_locations, parse_tool_report_locations, _LOCATIONS),
        (render_lablog_locations, parse_lablog_locations, _LOCATIONS),
        (render_csv_locations, parse_csv_locations, _LOCATIONS),
        (render_tool_report_messages, parse_tool_report_messages, _MESSAGES),
        (render_lablog_messages, parse_lablog_messages, _MESSAGES),
        (reduce_to_csv, parse_csv_messages, _MESSAGES),
    ],
)
def test_out_of_range_offset_drops_the_record_with_a_diagnostic(render, parser, records):
    text = render(records)
    clean, clean_diags = parser(text)
    assert [r.timestamp for r in clean] == [r.timestamp for r in records]
    # both have the shape of an offset, but no such offset exists
    for offset in ("(UTC+30)", "(UTC+1:99)"):
        broken, diags = parser(text.replace("(UTC+1)", offset, 1))
        assert [r.timestamp for r in broken] == [records[1].timestamp]
        assert {d.severity for d in diags if d not in clean_diags} == {Severity.ERROR}


_TOO_MANY_DIGITS = "9" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize(
    "name,parser,number,severity,expected",
    [
        # the size is dropped, its entry kept
        ("tool_report_locations.txt", parse_tool_report_locations, "4894559", Severity.WARNING,
         lambda clean: [replace(clean[0], size_bytes=None), *clean[1:]]),
        # the step's row is dropped
        ("method_steps.txt", parse_method_steps, "\n1\t", Severity.ERROR, lambda clean: clean[1:]),
    ],
)
def test_a_number_too_long_for_int_is_dropped_with_a_diagnostic(
    name, parser, number, severity, expected
):
    text = read_fixture(name)
    clean, clean_diags = parser(text)
    too_long = number.replace(number.strip(), _TOO_MANY_DIGITS)
    broken, diags = parser(text.replace(number, too_long, 1))
    assert broken == expected(clean)
    assert [d.severity for d in diags if d not in clean_diags] == [severity]


def test_diagnostic_render_format():
    _, diags = parse_device_profile(read_fixture("device_lablog.txt"))
    line = diags[0].render("device_lablog.txt")
    assert line.startswith("device_lablog.txt:1: warning: ")
