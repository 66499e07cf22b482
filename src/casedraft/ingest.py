"""Recoverable parsers for the source texts a case bundle is built from.

Four layouts are understood: commercial tool-report excerpts, lab-log
tables, reduced CSV exports (of messages and of locations), and free-text
mandates.  Parsers never raise on malformed content; they return whatever
records could be recovered plus a list of diagnostics carrying line
numbers.  Labels may appear in English or French; each parser's patterns
accept both.  Every multi-line layout is split by one entry walk,
``_entries``: a head line opens an entry and the lines up to the next head
are its body, so a dropped entry takes its continuation lines with it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .model import (
    DeviceProfile,
    Direction,
    LocationRecord,
    Mandate,
    MessageRecord,
    MethodStep,
    Sender,
    parse_offset,
)

__all__ = [
    "SourceFormat",
    "Severity",
    "ParseDiagnostic",
    "HONORIFIC_NAME",
    "parse_mandate",
    "parse_tool_report_locations",
    "parse_lablog_locations",
    "parse_tool_report_messages",
    "parse_lablog_messages",
    "parse_csv_messages",
    "parse_csv_locations",
    "parse_device_profile",
    "parse_method_steps",
]


class SourceFormat(Enum):
    TOOL_REPORT_EXCERPT = "tool_report_excerpt"
    LAB_LOG_TABLE = "lab_log_table"
    REDUCED_CSV = "reduced_csv"
    MANDATE_TEXT = "mandate_text"


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ParseDiagnostic:
    line_number: int
    severity: Severity
    message: str

    def render(self, source: str = "<input>") -> str:
        return f"{source}:{self.line_number}: {self.severity.value}: {self.message}"


_DIRECTIONS = {
    "incoming": Direction.INCOMING,
    "entrant": Direction.INCOMING,
    "outgoing": Direction.OUTGOING,
    "sortant": Direction.OUTGOING,
    "system": Direction.SYSTEM,
    "unknown": None,  # what render_tool_report_messages writes for no direction
}

UTC = timezone.utc
_Row = TypeVar("_Row")


def _warn(diags: list, line: int, msg: str) -> None:
    diags.append(ParseDiagnostic(line, Severity.WARNING, msg))


def _err(diags: list, line: int, msg: str) -> None:
    diags.append(ParseDiagnostic(line, Severity.ERROR, msg))


def _decimal(token: str) -> float:
    """Parse a number whose decimal mark may be a comma (38,9075)."""
    t = token.strip()
    if "," in t and "." not in t:
        t = t.replace(",", ".", 1)
    return float(t)


# the date-time grammar of every layout: day-first date, clock, (UTC±h) offset
_DATE = r"(?P<day>\d{2})\.(?P<month>\d{2})\.(?P<year>\d{4})"
_CLOCK = r"(?P<hour>\d{1,2}):(?P<minute>\d{2})(?::(?P<second>\d{2}))?"
_OFFSET = r"\((?P<off>UTC[+-]\d{1,2}(?::\d{2})?)\)"


def _instant(m: re.Match, default_offset: timezone) -> Optional[datetime]:
    """The instant a match's date, clock and off groups name, at its own
    offset or else the default; None when the date, the clock time or the
    offset does not exist."""
    off = m.group("off")
    try:
        return datetime(
            int(m.group("year")), int(m.group("month")), int(m.group("day")),
            int(m.group("hour")), int(m.group("minute")), int(m.group("second") or 0),
            tzinfo=parse_offset(off) if off else default_offset,
        )
    except ValueError:
        return None


# timestamp with day first: 05.02.2019 12:16:04(UTC-5), seconds and offset optional
_TS_DAYFIRST = re.compile(_DATE + r"\s+" + _CLOCK + r"\s*(?:" + _OFFSET + ")?")
# a part of every _TS_DAYFIRST match that re finds by its leading literal
_YEAR_AND_CLOCK = re.compile(r"\.\d{4}\s+\d{1,2}:\d{2}")
# timestamp with month first: 02/14/2019 14:33:44, as tool reports render Hour
_TS_MONTHFIRST = re.compile(
    r"(?P<month>\d{2})/(?P<day>\d{2})/(?P<year>\d{4})\s+" + _CLOCK + r"\s*(?:" + _OFFSET + ")?"
)


def _numbered(text: str) -> Iterator[tuple[int, str]]:
    """The text's non-blank lines with their 1-based line numbers."""
    return ((n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip())


def _entries(
    numbered: Iterable[tuple[int, _Row]], head: Callable[[_Row], object]
) -> Iterator[tuple[int, object, list[tuple[int, _Row]]]]:
    """Split (line number, row) pairs into entries: each row for which head
    gives a true value opens one, and the rows up to the next such row are
    its body.  Yields the head's line number, what head gave and the body's
    pairs; rows before the first head are skipped."""
    entry = None
    for n, row in numbered:
        opened = head(row)
        if opened:
            if entry is not None:
                yield entry
            entry = (n, opened, [])
        elif entry is not None:
            entry[2].append((n, row))
    if entry is not None:
        yield entry


def _dated(line: str) -> bool:
    """Whether the line holds a day-first date and clock; most lines lack a year and clock."""
    return bool(_YEAR_AND_CLOCK.search(line) and _TS_DAYFIRST.search(line))


def _message_entries(diags: list, text: str, head_re: re.Pattern) -> Iterator[tuple]:
    """_entries over a message layout whose heads require an offset.  A line
    outside a head with a day-first date and clock is likely a head that
    lost its offset.  Before the first head it is warned of as it is
    dropped; in a body it is warned of once the caller has read its entry,
    so that diagnostics stay in line order."""
    lines = _numbered(text)
    for n, line in lines:
        if head_re.match(line):
            lines = chain([(n, line)], lines)
            break
        if _dated(line):
            _warn(diags, n, "date and time outside an entry head; no entry above, dropped")
    for entry in _entries(lines, head_re.match):
        yield entry
        for n, line in entry[2]:
            if _dated(line):
                _warn(diags, n, "date and time outside an entry head; read into the entry above")


# the apps a message's source files may name, the first named wins
_APPS = (("telegram", "Telegram"), ("whatsapp", "WhatsApp"), ("mail", "Email"))


def _message(
    diags: list, line: int, noun: str, body_lines: list[str], **fields
) -> Optional[MessageRecord]:
    """The message of an entry's body lines and fields, its app the first
    of _APPS its source files name; None, with an error at the entry's
    line, when the body is blank."""
    body = "\n".join(body_lines).strip()
    if not body:
        _err(diags, line, f"{noun} has no message body; dropped")
        return None
    sources = " ".join(fields.get("source_files", ())).casefold()
    app = next((app for key, app in _APPS if key in sources), "")
    return MessageRecord(body=body, app=app, **fields)


def _sender_from(text: str, parenthesized: bool = False) -> Optional[Sender]:
    """Build a Sender from '695862679 (Wonder Woman)' or '695862679 Wonder Woman'."""
    t = text.strip()
    if not t or t == "-":
        return None
    if parenthesized:
        m = re.fullmatch(r"(\S+)(?:\s*\(([^)]*)\))?", t)
        if m:
            return Sender(m.group(1), (m.group(2) or "").strip() or None)
        return Sender(t)
    parts = t.split(None, 1)
    if parts[0].isdigit():
        return Sender(parts[0], parts[1].strip() if len(parts) > 1 else None)
    return Sender(t)


# ---------------------------------------------------------------------------
# tool-report locations

_TOOL_LOC_START = re.compile(r"^\s*(\d+)\s+\(([^)]*)\)\s*Name\s*:\s*(.*)$")
_HOUR_LABEL = re.compile(r"^\s*(?:Hour|Heure)\s*:\s*(.*)$", re.IGNORECASE)
_SOURCE_LABEL = re.compile(r"^\s*(?:Source File|Fichier source)\s*:\s*(.*)$", re.IGNORECASE)
_SIZE_IN_TEXT = re.compile(r"\(\s*(?:Size|Taille)\s*:\s*(\d+)\s*(?:octets|bytes)\s*\)", re.IGNORECASE)


def _coord_pair(text: str) -> Optional[tuple[float, float]]:
    parts = re.split(r",\s+", text.strip())
    if len(parts) != 2:
        return None
    try:
        lat, lon = _decimal(parts[0]), _decimal(parts[1])
    except ValueError:
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    return lat, lon


def parse_tool_report_locations(
    text: str, default_offset: timezone = UTC
) -> tuple[list[LocationRecord], list[ParseDiagnostic]]:
    """Parse numbered location entries as a commercial tool report prints them.

    Entries start with ``N (lat, lon) Name: file`` and continue with an
    Hour line, a Source File path, and a category line.  The path runs from
    its label through the first line that carries its size; when no size
    ends it and no category line came, its last line is the category, unless
    that is the label's own line.  Decimal marks may be dots or commas.
    Timestamps are read at UTC+0 unless the entry carries an explicit offset.
    """
    diags: list[ParseDiagnostic] = []
    records: list[LocationRecord] = []
    numbered = ((n, line) for n, line in _numbered(text) if not line.lstrip().startswith("#"))
    for start_line, head, body in _entries(numbered, _TOOL_LOC_START.match):
        name = head.group(3).strip()
        coords = _coord_pair(head.group(2))
        if coords is None:
            _err(diags, start_line, f"unreadable coordinate pair: {head.group(2)!r}")
            continue

        ts: Optional[datetime] = None
        category = ""
        source_parts: list[str] = []
        in_source = False
        size: Optional[int] = None

        for n, line in body:
            hm = _HOUR_LABEL.match(line)
            if hm:
                tm = _TS_MONTHFIRST.search(hm.group(1))
                if tm:
                    ts = _instant(tm, default_offset)
                if ts is None:
                    _err(diags, n, f"unreadable timestamp: {hm.group(1)!r}")
                in_source = False
                continue
            sm = _SOURCE_LABEL.match(line)
            if sm or in_source:
                source_parts.append(sm.group(1).strip() if sm else line.strip())
                in_source = not _SIZE_IN_TEXT.search(line)
                continue
            if not category:
                category = line.strip()
            else:
                _warn(diags, n, f"unexpected line in entry: {line.strip()!r}")
        if in_source and not category and not _SOURCE_LABEL.match(body[-1][1]):
            category = source_parts.pop()

        source_text = " ".join(p for p in source_parts if p)
        szm = _SIZE_IN_TEXT.search(source_text)
        if szm:
            try:
                size = int(szm.group(1))
            except ValueError:  # more digits than int() converts
                _warn(diags, start_line, f"entry {head.group(1)}: size has too many digits; dropped")
            source_text = _SIZE_IN_TEXT.sub("", source_text)
        source_text = re.sub(r"\s+", " ", source_text).strip()
        source_text = re.sub(r"\s*:\s*$", "", source_text)

        if ts is None:
            _err(diags, start_line, f"entry {head.group(1)} has no parseable timestamp; dropped")
            continue
        if not category:
            _warn(diags, start_line, f"entry {head.group(1)} has no category line")

        records.append(
            LocationRecord(
                name=name,
                timestamp=ts,
                category=category,
                latitude=coords[0],
                longitude=coords[1],
                source_file=source_text or None,
                size_bytes=size,
            )
        )

    return records, diags


# ---------------------------------------------------------------------------
# lab-log locations

_LAB_LOC_ROW = re.compile(
    r"^(?P<name>\S+)\s+"
    + _DATE + r"\s+" + _CLOCK + r"\s*(?:" + _OFFSET + r")?\s+"
    r"(?P<category>.*?)\s+"
    r"(?P<lat>[-+]?\d{1,3}(?:[.,]\d+)?)\s+"
    r"(?P<lon>[-+]?\d{1,3}(?:[.,]\d+)?)"
    r"(?:\s+(?P<related>\S.*?))?\s*$"
)

_LAB_LOC_HEADER = re.compile(r"^\s*Name\s", re.IGNORECASE)


def parse_lablog_locations(
    text: str, default_offset: timezone = UTC
) -> tuple[list[LocationRecord], list[ParseDiagnostic]]:
    """Parse the lab log's one-row-per-record location table.

    Columns: Name, Time (day-first, comma decimals), Category, Latitude,
    Longitude, Related Location.  Delimiters are tabs or space runs, which
    the row pattern absorbs.  Timestamps default to UTC+0 when the row has
    no explicit offset.
    """
    diags: list[ParseDiagnostic] = []
    records: list[LocationRecord] = []
    saw_header = False

    for n, line in _numbered(text):
        if _LAB_LOC_HEADER.match(line) and "latitude" in line.casefold():
            saw_header = True
            continue
        m = _LAB_LOC_ROW.match(line.strip())
        if not m:
            # bad rows are recoverable; a missing header is not
            _warn(diags, n, f"skipping unreadable table row: {line.strip()[:60]!r}")
            continue
        ts = _instant(m, default_offset)
        if ts is None:
            _err(diags, n, f"skipping row with unreadable timestamp: {line.strip()[:60]!r}")
            continue
        try:
            lat, lon = _decimal(m.group("lat")), _decimal(m.group("lon"))
        except ValueError:
            _warn(diags, n, "skipping row with unreadable coordinates")
            continue
        related = (m.group("related") or "").strip() or None
        records.append(
            LocationRecord(
                name=m.group("name"),
                timestamp=ts,
                category=m.group("category").strip(),
                latitude=lat,
                longitude=lon,
                related_location=related,
            )
        )

    if not saw_header:
        _err(diags, 1, "header row not found")
    return records, diags


# ---------------------------------------------------------------------------
# tool-report messages

_TOOL_MSG_START = re.compile(
    r"^\s*" + _DATE + r"\s+" + _CLOCK + r"\s*" + _OFFSET + r"\s*"
    r"Direction\s*:\s*(?P<direction>[A-Za-zÀ-ſ]+)\s*"
    r"(?:,\s*(?P<sender>.+?))?\s*$"
)


def parse_tool_report_messages(text: str) -> tuple[list[MessageRecord], list[ParseDiagnostic]]:
    """Parse chat entries as a tool report prints them.

    An entry opens with ``DD.MM.YYYY HH:MM(UTC+0)Direction:...`` optionally
    followed by ``, id (Display Name)``; body lines follow, then one or more
    source-file lines.  Direction labels may be English or French.  Heads
    require an offset; a head without one is read into the entry above,
    with a warning, or dropped with one before the first head.
    """
    diags: list[ParseDiagnostic] = []
    records: list[MessageRecord] = []
    for line_no, head, entry_body in _message_entries(diags, text, _TOOL_MSG_START):
        ts = _instant(head, UTC)  # never read: the head has an offset
        if ts is None:
            _err(diags, line_no, "entry has no parseable timestamp; dropped")
            continue

        dir_label = head.group("direction").casefold()
        if dir_label not in _DIRECTIONS:
            _warn(diags, line_no, f"unknown direction label: {head.group('direction')!r}")

        body_lines: list[str] = []
        sources: list[str] = []
        for _, raw in entry_body:
            sm = _SOURCE_LABEL.match(raw)
            if sm or sources:
                sources.append(sm.group(1).strip() if sm else raw.strip())
            else:
                body_lines.append(raw.strip())

        message = _message(
            diags, line_no, "entry", body_lines, timestamp=ts,
            sender=_sender_from(head.group("sender") or "", parenthesized=True),
            direction=_DIRECTIONS.get(dir_label), source_files=tuple(s for s in sources if s),
        )
        if message:
            records.append(message)

    return records, diags


# ---------------------------------------------------------------------------
# lab-log messages

_LAB_MSG_ROW = re.compile(
    r"^(?P<sender>.*?)\s*" + _DATE + r"\s+" + _CLOCK + r"\s*" + _OFFSET + r"\s*"
    r"(?P<rest>.*)$"
)

_SOURCEISH = re.compile(r":\s*0x[0-9A-Fa-f]+|\(Table\s*:", re.IGNORECASE)


def _parse_deleted(token: str) -> Optional[bool]:
    t = token.strip().casefold()
    if t in {"yes", "true", "deleted"}:
        return True
    if t in {"no", "false"}:
        return False
    return None


def parse_lablog_messages(text: str) -> tuple[list[MessageRecord], list[ParseDiagnostic]]:
    """Parse the lab log's columnar message layout.

    Each record is a header row (From, Timestamp with explicit offset,
    Deleted, Instant Message, Status) followed by the body on its own line
    and source-file lines, possibly chained with '&'.  Header rows require
    an offset; a header row without one is read into the row above, with a
    warning, or dropped with one before the first header row.
    """
    diags: list[ParseDiagnostic] = []
    records: list[MessageRecord] = []
    for line_no, row, entry_body in _message_entries(diags, text, _LAB_MSG_ROW):
        ts = _instant(row, UTC)  # never read: the row has an offset
        if ts is None:
            _err(diags, line_no, "row has no parseable timestamp; dropped")
            continue

        rest = row.group("rest").split()
        deleted = _parse_deleted(rest[0]) if rest else None
        body_lines: list[str] = []
        source_text_parts: list[str] = []
        for _, line in entry_body:
            raw = line.strip()
            if source_text_parts or _SOURCEISH.search(raw) or raw.startswith("USERDATA"):
                source_text_parts.append(raw)
            else:
                body_lines.append(raw)

        source_text = " ".join(source_text_parts)
        message = _message(
            diags, line_no, "row", body_lines, timestamp=ts,
            sender=_sender_from(row.group("sender")), deleted=deleted,
            source_files=tuple(s.strip() for s in re.split(r"\s*&\s*", source_text) if s.strip()),
        )
        if message:
            records.append(message)

    return records, diags


# ---------------------------------------------------------------------------
# reduced CSV messages

def _split_csv_row(line: str) -> list[str]:
    # the delimiter is ' ; ': pad so edge delimiters keep their spaces
    cells = re.split(r"\s;\s", f" {line} ")
    return [c.strip() for c in cells]


def _csv_opening(cells: list[str]) -> Optional[list[str]]:
    """A message row's From, Body and Timestamp cells when its From or
    Timestamp cell is filled; None for a row that continues a body."""
    return cells if cells[0] or cells[2] else None


def parse_csv_messages(
    text: str, default_offset: timezone = UTC
) -> tuple[list[MessageRecord], list[ParseDiagnostic]]:
    """Parse the reduced ' ; '-delimited export (From, Body, Timestamp).

    A row with a From or Timestamp cell opens a message; the rows after it
    with neither continue its body on new lines, and are dropped with it.
    Cell padding is insignificant.
    """
    diags: list[ParseDiagnostic] = []
    if ";" not in text:
        _err(diags, 1, "field delimiter ' ; ' never found")
        return [], diags

    def rows() -> Iterator[tuple[int, list[str]]]:
        opened = False
        for n, line in _numbered(text):
            cells = _split_csv_row(line) + [""]  # a row may leave out its Timestamp
            if len(cells) < 3:
                _err(diags, n, "row has no ' ; ' delimiter; dropped")
            elif cells[0].casefold().startswith("from") and "body" in line.casefold():
                continue  # header row
            elif opened or _csv_opening(cells):
                opened = True
                yield n, cells[:3]
            else:
                _err(diags, n, "continuation row with nothing to continue; dropped")

    records: list[MessageRecord] = []
    for n, (frm, body, ts_text), continued in _entries(rows(), _csv_opening):
        tm = _TS_DAYFIRST.search(ts_text)
        ts = _instant(tm, default_offset) if tm else None
        if ts is None:
            _err(diags, n, f"row has no parseable timestamp: {ts_text!r}; dropped")
            continue
        body_lines = [body, *(cells[1] for _, cells in continued)]
        message = _message(diags, n, "row", body_lines, timestamp=ts, sender=_sender_from(frm))
        if message:
            records.append(message)
    # _entries reads on to the next opening row before it yields an entry,
    # so rows() reports later rows first: sort into line order
    diags.sort(key=lambda d: d.line_number)
    return records, diags


# ---------------------------------------------------------------------------
# reduced CSV locations

def parse_csv_locations(text: str) -> tuple[list[LocationRecord], list[ParseDiagnostic]]:
    """Parse the reduced ' ; '-delimited location table (Name, Latitude,
    Longitude, Timestamp, Related Location) as prompting renders it."""
    diags: list[ParseDiagnostic] = []
    records: list[LocationRecord] = []
    for n, line in _numbered(text):
        cells = _split_csv_row(line)
        if len(cells) < 4:
            _err(diags, n, "row has too few cells; dropped")
            continue
        if cells[0].casefold() == "name":
            continue
        tm = _TS_DAYFIRST.search(cells[3])
        ts = _instant(tm, UTC) if tm else None
        if ts is None:
            _err(diags, n, "row has no parseable timestamp; dropped")
            continue
        try:
            lat, lon = _decimal(cells[1]), _decimal(cells[2])
        except ValueError:
            _err(diags, n, "unreadable coordinates; dropped")
            continue
        related = cells[4].strip() or None if len(cells) > 4 else None
        records.append(
            LocationRecord(
                name=cells[0], timestamp=ts, category="", latitude=lat,
                longitude=lon, related_location=related,
            )
        )
    return records, diags


# ---------------------------------------------------------------------------
# device profile tables

_PROFILE_KEYS: list[tuple[str, str]] = [
    ("detected phone vendor", "vendor"),
    ("detected phone model", "model_code"),
    ("os version", "os_version"),
    ("mac address", "mac_address"),
    ("time zone", "timezone"),
    ("timezone", "timezone"),
]


def parse_device_profile(text: str) -> tuple[DeviceProfile, list[ParseDiagnostic]]:
    """Parse a key-value device table (vendor, model, OS, MAC, time zone).

    A three-column variant with a trailing source column is tolerated; the
    extra column is ignored.  Vendor or model missing is an Error.
    """
    diags: list[ParseDiagnostic] = []
    fields: dict[str, str] = {}

    for n, line in _numbered(text):
        stripped = line.strip()
        folded = re.sub(r"\s+", " ", stripped).casefold()
        if folded in {"name value source", "name value"}:
            continue
        for key, field_name in _PROFILE_KEYS:
            if folded.startswith(key):
                remainder = stripped[len(key):].lstrip(" :\t")
                cells = re.split(r"\t+|\s{2,}", remainder)
                value = cells[0].strip() if cells else ""
                if not value:
                    _warn(diags, n, f"row for {field_name!r} has no value")
                elif field_name in fields:
                    _warn(diags, n, f"duplicate row for {field_name!r}; keeping first")
                else:
                    fields[field_name] = value
                break
        else:
            _warn(diags, n, f"unrecognized row: {stripped[:50]!r}")

    for required in ("vendor", "model_code"):
        if required not in fields:
            _err(diags, 1, f"table is missing {required!r}")

    profile = DeviceProfile(
        vendor=fields.get("vendor", ""),
        model_code=fields.get("model_code", ""),
        os_version=fields.get("os_version", ""),
        mac_address=fields.get("mac_address", ""),
        timezone=fields.get("timezone", ""),
    )
    return profile, diags


# ---------------------------------------------------------------------------
# mandate text

_BLOCK_LABEL = re.compile(
    r"^\s*(Date|Description|Mandate|Note|Items|Transmitted items)\s*:\s*",
    re.IGNORECASE,
)
_ENUMERATOR = re.compile(
    r"(?:(?<=\s)|^)\(?(?:x{0,1}(?:ix|iv|v?i{0,3})|\d{1,2})\)?[.)]\s+"
)
_DEADLINE_CLAUSE = re.compile(
    r"before\s+(?:the\s+)?(\d{1,2})(?:st|nd|rd|th)?(?:\s+day)?\s+of\s+([A-Za-z]+),?\s+(\d{4})",
    re.IGNORECASE,
)
_CLOSING_SENTENCE = re.compile(r"\bWe request\b.*$", re.IGNORECASE | re.DOTALL)
_INVESTIGATOR = re.compile(
    r"investigator\s+(?:is\s+)?([^\s.,;!?]+(?:\s+[A-Z][^\s.,;!?]*)*)",
    re.IGNORECASE,
)
HONORIFIC_NAME = re.compile(r"\b(M(?:rs?|s)|Dr|Mme|Mlle)\.?\s+([A-Z][\w'-]+)")
_MONTHS = {
    name.casefold(): i
    for i, name in enumerate(
        ["January", "February", "March", "April", "May", "June", "July",
         "August", "September", "October", "November", "December"],
        start=1,
    )
}
_ELLIPSIS = re.compile(r"\(\.{3}\)|\(…\)|…")


def _flatten(lines: list[str]) -> str:
    return re.sub(r"\s+", " ", " ".join(lines)).strip()


_ISO_DATE = re.compile(r"(?P<year>\d{4})-(?P<month>\d{2})-(?P<day>\d{2})")


def _parse_block_date(text: str) -> Optional[date]:
    """A Date block's first day-first date, else its first ISO one; None
    when the date found does not exist, with no ISO date tried after an
    invalid day-first one."""
    m = re.search(_DATE, text) or _ISO_DATE.search(text)
    try:
        return date(int(m["year"]), int(m["month"]), int(m["day"])) if m else None
    except ValueError:
        return None


def _split_enumerated(text: str) -> list[str]:
    marks = list(_ENUMERATOR.finditer(text))
    out = []
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(text)
        out.append(text[m.end():end].strip())
    return out


def parse_mandate(text: str) -> tuple[Mandate, list[ParseDiagnostic]]:
    """Parse a mandate's labeled blocks into structured fields.

    Recognized blocks: Date, Description, Mandate (with enumerated
    questions and an optional closing deadline sentence), Note (carries the
    investigator), and an optional Items list.  Suspects are whoever the
    text calls by an honorific.  Missing Description or Mandate blocks are
    Errors; a partial Mandate is still returned.
    """
    diags: list[ParseDiagnostic] = []
    blocks: dict[str, list[str]] = {}
    block_lines: dict[str, int] = {}
    for n, m, body in _entries(_numbered(text), _BLOCK_LABEL.match):
        label = m.group(1).casefold()
        if label == "transmitted items":
            label = "items"
        blocks.setdefault(label, []).extend([m.string[m.end():], *(line for _, line in body)])
        block_lines.setdefault(label, n)

    received = None
    if "date" in blocks:
        received = _parse_block_date(_flatten(blocks["date"]))
        if received is None:
            _warn(diags, block_lines["date"], "Date block has no readable date")

    description = _flatten(blocks.get("description", []))
    if "description" not in blocks:
        _err(diags, 1, "no Description block found")

    questions: tuple[str, ...] = ()
    deadline: Optional[date] = None
    if "mandate" in blocks:
        mandate_text = _flatten(blocks["mandate"])
        dm = _DEADLINE_CLAUSE.search(mandate_text)
        if dm:
            month = _MONTHS.get(dm.group(2).casefold())
            if month:
                try:
                    deadline = date(int(dm.group(3)), month, int(dm.group(1)))
                except ValueError:
                    _warn(diags, block_lines["mandate"], "deadline clause has no valid date")
            else:
                _warn(diags, block_lines["mandate"], f"unknown month: {dm.group(2)!r}")
        body = _CLOSING_SENTENCE.sub("", mandate_text)
        cleaned = (_ELLIPSIS.sub("", q).strip() for q in _split_enumerated(body))
        questions = tuple(re.sub(r"\s+", " ", q) for q in cleaned if q)
        if not questions:
            _warn(diags, block_lines["mandate"], "Mandate block has no enumerated questions")
    else:
        _err(diags, 1, "no Mandate block found")

    investigator = None
    if "note" in blocks:
        im = _INVESTIGATOR.search(_flatten(blocks["note"]))
        if im:
            investigator = im.group(1).strip()
        else:
            _warn(diags, block_lines["note"], "Note block names no investigator")

    transmitted: tuple[str, ...] = ()
    if "items" in blocks:
        flat = _flatten(blocks["items"])
        transmitted = tuple(_split_enumerated(flat) or [
            p.strip() for p in re.split(r"\s*(?:;|,(?!\d)| and )\s*", flat) if p.strip()
        ])

    suspects: dict[tuple[str, str], str] = {}  # each name as first spelt
    for hm in HONORIFIC_NAME.finditer(text):
        title, name = hm.groups()
        suspects.setdefault((title.casefold(), name.casefold()), f"{title} {name}")

    mandate = Mandate(
        description=description,
        questions=questions,
        received_date=received,
        deadline=deadline,
        investigator_name=investigator,
        suspects=tuple(suspects.values()),
        transmitted_items=transmitted,
    )
    return mandate, diags


# ---------------------------------------------------------------------------
# method-step tables (lab-log methodology layout)

_STEP_ROW = re.compile(r"^\s*(\d+)[.)]?\s+(.*)$")


def parse_method_steps(text: str) -> tuple[list[MethodStep], list[ParseDiagnostic]]:
    """Parse the lab log's numbered step table: Step, Action, Purpose, Tool, Version."""
    diags: list[ParseDiagnostic] = []
    steps: list[MethodStep] = []
    for n, line in _numbered(text):
        stripped = line.strip()
        if stripped.casefold().startswith("step"):
            continue
        m = _STEP_ROW.match(stripped)
        if not m:
            _err(diags, n, f"unreadable step row: {stripped[:50]!r}")
            continue
        cells = [c.strip() for c in re.split(r"\t+|\s{2,}", m.group(2)) if c.strip()]
        if not cells:
            _err(diags, n, "step row has no action")
            continue
        action = cells[0]
        purpose = cells[1] if len(cells) > 1 and cells[1] != "-" else ""
        tool = cells[2] if len(cells) > 2 and cells[2] != "-" else None
        version = cells[3] if len(cells) > 3 and cells[3] != "-" else None
        try:
            ordinal = int(m.group(1))
        except ValueError:  # more digits than int() converts
            _err(diags, n, "step number is too long; row dropped")
            continue
        steps.append(
            MethodStep(
                ordinal=ordinal,
                action=action,
                purpose=purpose,
                tool_name=tool,
                tool_version=version,
            )
        )
    if not steps:
        _err(diags, 1, "no step rows found")
    return steps, diags
