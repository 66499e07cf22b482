"""Parsers for the four source layouts, pinned to the golden excerpts."""

from __future__ import annotations

import re
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from casedraft import ingest
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
from casedraft.model import (
    Direction, LocationRecord, Mandate, MessageRecord, Sender, parse_offset,
)
from casedraft.prompting import (
    render_csv_locations,
    render_lablog_locations,
    render_lablog_messages,
    render_tool_report_locations,
    render_tool_report_messages,
)
from casedraft.transform import reduce_to_csv

from conftest import DATA_DIR, read_fixture

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


def test_tool_report_source_ends_at_its_size_and_a_line_after_the_category_is_unexpected():
    text = (
        "1 (38.9075, -77.0727) Name: x.jpg\n"
        "Hour: 02/14/2019 14:33:44\n"
        "Source File: USERDATA\n"
        "/Root/x.jpg (Size : 12 bytes)\n"
        "Media Locations\n"
        "Deleted\n"
    )
    records, diags = parse_tool_report_locations(text)
    assert [(r.source_file, r.size_bytes, r.category) for r in records] == [
        ("USERDATA /Root/x.jpg", 12, "Media Locations")
    ]
    assert [(d.line_number, d.message) for d in diags] == [(6, "unexpected line in entry: 'Deleted'")]


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


@pytest.mark.parametrize("label,direction,warned", [
    ("Sortant", Direction.OUTGOING, False),
    # what render_tool_report_messages writes for a message without a direction
    ("Unknown", None, False),
    ("Sideways", None, True),
])
def test_tool_report_direction_labels(label, direction, warned):
    records, diags = parse_tool_report_messages(f"05.02.2019 12:16(UTC+0) Direction:{label}\nhello\n")
    assert records[0].direction is direction
    assert [d.message for d in diags] == ([f"unknown direction label: {label!r}"] if warned else [])


@pytest.mark.parametrize("source,app", [
    ("/Root/data/org.telegram.messenger/files/cache4.db", "Telegram"),
    ("/Root/data/com.whatsapp/databases/msgstore.db", "WhatsApp"),
    ("/Users/x/Library/Mail/V6/INBOX.mbox", "Email"),
    ("/Root/data/notes.db", ""),
])
def test_tool_report_message_app_follows_its_source(source, app):
    text = f"05.02.2019 12:16(UTC+0) Direction:Incoming\nhello\nSource File: {source}\n"
    records, diags = parse_tool_report_messages(text)
    assert diags == []
    assert (records[0].app, records[0].source_files) == (app, (source,))


def test_a_message_head_without_its_offset_is_read_into_the_entry_above_with_a_warning():
    lines = read_fixture("tool_report_messages.txt").splitlines()
    assert parse_tool_report_messages("\n".join(lines))[1] == []
    lines[4] = lines[4].replace("(UTC+0)", "")
    records, diags = parse_tool_report_messages("\n".join(lines))
    assert len(records) == 2
    assert [(d.line_number, d.severity, d.message) for d in diags] == [
        (5, Severity.WARNING, "date and time outside an entry head; read into the entry above"),
    ]



def test_a_first_message_head_without_its_offset_is_dropped_with_a_warning():
    lines = read_fixture("tool_report_messages.txt").splitlines()
    lines[0] = lines[0].replace("(UTC+0)", "")
    records, diags = parse_tool_report_messages("\n".join(lines))
    assert len(records) == 2
    assert [(d.line_number, d.severity, d.message) for d in diags] == [
        (1, Severity.WARNING, "date and time outside an entry head; no entry above, dropped"),
    ]


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


def test_a_lablog_row_without_its_offset_is_read_into_the_row_above_with_a_warning():
    lines = read_fixture("lablog_messages.txt").splitlines()
    assert parse_lablog_messages("\n".join(lines))[1] == []
    lines[9] = lines[9].replace("(UTC-5)", "")
    records, diags = parse_lablog_messages("\n".join(lines))
    assert len(records) == 2
    assert [(d.line_number, d.severity, d.message) for d in diags] == [
        (10, Severity.WARNING, "date and time outside an entry head; read into the entry above"),
    ]



def test_a_first_lablog_row_without_its_offset_is_dropped_with_a_warning():
    lines = read_fixture("lablog_messages.txt").splitlines()
    lines[5] = lines[5].replace("(UTC-5)", "")
    records, diags = parse_lablog_messages("\n".join(lines))
    assert len(records) == 2
    assert [(d.line_number, d.severity, d.message) for d in diags] == [
        (6, Severity.WARNING, "date and time outside an entry head; no entry above, dropped"),
    ]

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


def test_csv_continuation_rows_are_dropped_with_their_own_row():
    text = (
        "A ; hello ; 05.02.2019 12:00:00(UTC+0)\n"
        "B ; bye ; 31.02.2019 12:00:00(UTC+0)\n"
        "  ; more of bye ;\n"
    )
    records, diags = parse_csv_messages(text)
    assert [(r.sender.identifier, r.body) for r in records] == [("A", "hello")]
    assert [(d.line_number, d.message) for d in diags] == [
        (2, "row has no parseable timestamp: '31.02.2019 12:00:00(UTC+0)'; dropped"),
    ]


_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789", min_size=1, max_size=8)
_CSV_MESSAGES = st.lists(
    st.tuples(
        st.lists(st.lists(_WORDS, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=10**9),
        st.one_of(st.none(), st.from_regex(r"[0-9]{1,9}", fullmatch=True)),
        st.booleans(),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(_CSV_MESSAGES)
def test_csv_messages_with_impossible_dates_drop_out_and_leave_the_others_intact(items):
    base = datetime(2019, 1, 1, tzinfo=UTC)
    records = [
        MessageRecord(
            "\n".join(lines), base + timedelta(seconds=s), sender=sender and Sender(sender)
        )
        for lines, s, sender, _ in items
    ]
    broken = [b for *_, b in items]
    rows = reduce_to_csv(records).splitlines()
    # the opening rows are those with a timestamp, one per message in order
    openings = [n for n, row in enumerate(rows) if re.search(r"\d{2}\.\d{2}\.\d{4}", row)]
    for n, bad in zip(openings, broken):
        if bad:
            rows[n] = re.sub(r"\d{2}\.\d{2}\.", "31.02.", rows[n])
    again, diags = parse_csv_messages("\n".join(rows))
    kept = [r for r, bad in zip(records, broken) if not bad]
    assert again == kept
    assert [d.line_number for d in diags] == [n + 1 for n, bad in zip(openings, broken) if bad]


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


def test_device_profile_warns_of_a_duplicate_row_and_an_empty_value():
    text = (
        "Detected Phone Vendor   Samsung\n"
        "Detected Phone Vendor   Apple\n"
        "Detected Phone Model   SM-G925F\n"
        "OS Version\n"
    )
    profile, diags = parse_device_profile(text)
    assert (profile.vendor, profile.model_code, profile.os_version) == ("Samsung", "SM-G925F", "")
    assert [(d.line_number, d.severity, d.message) for d in diags] == [
        (2, Severity.WARNING, "duplicate row for 'vendor'; keeping first"),
        (4, Severity.WARNING, "row for 'os_version' has no value"),
    ]


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


def test_mandate_blocks_gather_their_repeats_and_skip_blank_lines_and_text_before_them():
    text = (
        "Cantonal police, forensic unit: file of Mr Pressive\n"
        "\n"
        "Date: 01.10.2023\n"
        "Description: The phones of\n"
        "\n"
        "Mr Sforza were seized.\n"
        "Mandate: Using the information provided, answer the following questions:\n"
        "i. Where was Mr Sforza?\n"
        "\n"
        "ii. Whom did he meet?\n"
        "Description: Both were seized at his home.\n"
        "Note: The investigator is X.\n"
        "Mandate: iii. When did they meet?\n"
    )
    mandate, diags = parse_mandate(text)
    assert diags == []
    assert mandate == Mandate(
        description="The phones of Mr Sforza were seized. Both were seized at his home.",
        questions=("Where was Mr Sforza?", "Whom did he meet?", "When did they meet?"),
        received_date=date(2023, 10, 1),
        deadline=None,
        investigator_name="X",
        # the text before the first label names a suspect too
        suspects=("Mr Pressive", "Mr Sforza"),
        transmitted_items=(),
    )


def test_empty_mandate_two_errors():
    mandate, diags = parse_mandate("")
    assert mandate.questions == ()
    assert len(errors(diags)) == 2


# a day-first date wins over an ISO one wherever each stands, and one that
# does not exist leaves the block without a date
@pytest.mark.parametrize("day,received", [
    ("2019-02-14, that is 15.02.2019", date(2019, 2, 15)),
    ("30.02.2019 (2019-02-14)", None),
])
def test_mandate_date_block_reads_its_day_first_date_before_any_iso_one(day, received):
    mandate, diags = parse_mandate(f"Date: {day}\nDescription: A phone.\nMandate: 1. Where?\n")
    assert mandate.received_date == received
    assert [d.message for d in diags] == ([] if received else ["Date block has no readable date"])


@pytest.mark.parametrize("day,received", [
    ("2019-02-14", date(2019, 2, 14)),
    ("2019-02-30", None),
])
def test_mandate_reads_an_iso_date_and_a_transmitted_items_label(day, received):
    text = (
        f"Date: {day}\n"
        "Description: A phone was seized.\n"
        "Mandate: 1. Where was the phone?\n"
        "Transmitted items: One Samsung phone; one Apple phone\n"
    )
    mandate, diags = parse_mandate(text)
    assert mandate.received_date == received
    assert mandate.transmitted_items == ("One Samsung phone", "one Apple phone")
    assert mandate.questions == ("Where was the phone?",)
    assert [d.message for d in diags] == ([] if received else ["Date block has no readable date"])


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


# the five patterns as each once spelt out its own date, clock time and
# offset, and the instant reader that parsed the clock a second time: the
# references the shared date-time grammar must agree with
_OLD_OFFSET = r"UTC[+-]\d{1,2}(?::\d{2})?"
_OLD_PATTERNS = {
    "_TS_DAYFIRST": re.compile(
        r"(?P<day>\d{2})\.(?P<month>\d{2})\.(?P<year>\d{4})\s+"
        r"(?P<time>\d{1,2}:\d{2}(?::\d{2})?)\s*(?:\((?P<off>" + _OLD_OFFSET + r")\))?"
    ),
    "_TS_MONTHFIRST": re.compile(
        r"(?P<month>\d{2})/(?P<day>\d{2})/(?P<year>\d{4})\s+"
        r"(?P<time>\d{1,2}:\d{2}(?::\d{2})?)\s*(?:\((?P<off>" + _OLD_OFFSET + r")\))?"
    ),
    "_LAB_LOC_ROW": re.compile(
        r"^(?P<name>\S+)\s+"
        r"(?P<day>\d{2})\.(?P<month>\d{2})\.(?P<year>\d{4})\s+"
        r"(?P<time>\d{1,2}:\d{2}(?::\d{2})?)\s*(?:\((?P<off>" + _OLD_OFFSET + r")\))?\s+"
        r"(?P<category>.*?)\s+"
        r"(?P<lat>[-+]?\d{1,3}(?:[.,]\d+)?)\s+"
        r"(?P<lon>[-+]?\d{1,3}(?:[.,]\d+)?)"
        r"(?:\s+(?P<related>\S.*?))?\s*$"
    ),
    "_TOOL_MSG_START": re.compile(
        r"^\s*(?P<day>\d{2})\.(?P<month>\d{2})\.(?P<year>\d{4})\s+"
        r"(?P<time>\d{1,2}:\d{2}(?::\d{2})?)\s*\((?P<off>" + _OLD_OFFSET + r")\)\s*"
        r"Direction\s*:\s*(?P<direction>[A-Za-zÀ-ſ]+)\s*"
        r"(?:,\s*(?P<sender>.+?))?\s*$"
    ),
    "_LAB_MSG_ROW": re.compile(
        r"^(?P<sender>.*?)\s*"
        r"(?P<day>\d{2})\.(?P<month>\d{2})\.(?P<year>\d{4})\s+"
        r"(?P<time>\d{1,2}:\d{2}(?::\d{2})?)\s*\((?P<off>" + _OLD_OFFSET + r")\)\s*"
        r"(?P<rest>.*)$"
    ),
}


def _old_instant(m, default_offset):
    tm = re.fullmatch(r"(\d{1,2}):(\d{2})(?::(\d{2}))?", m.group("time").strip())
    if not tm:
        return None
    off = m.group("off")
    try:
        return datetime(
            int(m.group("year")), int(m.group("month")), int(m.group("day")),
            int(tm.group(1)), int(tm.group(2)), int(tm.group(3) or 0),
            tzinfo=parse_offset(off) if off else default_offset,
        )
    except ValueError:
        return None


_NOISE = st.text("0123456789.:/() \tUTC+-x", max_size=3)


def _slot(*options: str):
    """One part of a date-time line: a form the layouts write, or a few
    characters of the grammar's alphabet in its place."""
    return st.one_of(*map(st.just, options), _NOISE)


# what each layout writes before and after its date-time, or noise
_FRAMES = st.one_of(*map(st.just, [
    ("", ""), ("Hour: ", ""), ("-", "\t-"),
    ("x.jpg\t", "\tMedia Locations\t38,9075\t-77,0727\tHealy Hall"), ("x.jpg ", " Media 38.9 -77.0"),
    ("", "Direction:Incoming"), (" ", " Direction : Entrant, 695862679 (Wonder Woman)"),
    ("695862679 Wonder Woman\t", "\t-\t-\t-"),
]), st.tuples(_NOISE, _NOISE))

# a line with a date-time where the layouts put one, each part well formed or not
_TIME_LINES = st.tuples(
    _FRAMES,
    _slot("05.02.2019", "31.02.2019", "00.13.2019", "02/14/2019", "13/01/2019", "5.2.2019"),
    _slot(" ", "\t", "  ", ""),
    _slot("12:16", "7:05", "23:59:59", "24:00", "123:45", "1:2", "12:16:4", "12:16:60"),
    _slot("", " ", "\t"),
    _slot("", "(UTC+0)", "(UTC-5)", "(UTC+5:30)", "(UTC+30)", "(UTC+1:99)", "(UTC+", "UTC-5"),
).map(lambda parts: parts[0][0] + "".join(parts[1:]) + parts[0][1])


@settings(max_examples=3000, deadline=None)
@given(_TIME_LINES)
def test_the_shared_grammar_matches_as_each_layout_once_spelt_it(text):
    for name, old in _OLD_PATTERNS.items():
        new = getattr(ingest, name)
        for how in ("match", "search"):
            a, b = getattr(old, how)(text), getattr(new, how)(text)
            assert (a is None) == (b is None), (name, how)
            if a is None:
                continue
            assert a.span() == b.span()
            shared = [g for g in a.groupdict() if g != "time"]
            assert [a.group(g) for g in shared] == [b.group(g) for g in shared]
            assert a.group("time") == text[b.start("hour"):max(b.end("minute"), b.end("second"))]
            assert _old_instant(a, MINUS5) == ingest._instant(b, MINUS5)


# lines of the characters a day-first stamp is made of, Unicode digits and spaces too
_STAMP_PARTS = st.lists(st.sampled_from(
    ["0", "1", "5", "9", "12", "31", "2019", "٣", ".", ":", " ", "\t", "\u2009", "(UTC+1)", "x"]
), max_size=30).map("".join)


@settings(max_examples=3000, deadline=None)
@given(st.one_of(_STAMP_PARTS, _TIME_LINES))
def test_the_year_and_clock_prefilter_keeps_every_day_first_verdict(line):
    assert ingest._dated(line) == bool(ingest._TS_DAYFIRST.search(line))


def test_the_year_and_clock_prefilter_agrees_on_every_fixture_line():
    lines = [line for path in sorted(DATA_DIR.glob("*.txt"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    assert [ingest._dated(line) for line in lines] == [bool(ingest._TS_DAYFIRST.search(line)) for line in lines]
    assert sum(map(ingest._dated, lines)) > 10


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
