"""Prompt construction: render bundle data into the source layouts, pair it
with a request sentence, and enumerate the full experiment matrix.

DRAFTED is the drafting plan, and the one place that decides it: which
report sections a model drafts, from which input formats, in matrix
order.  A section it does not list is reserved for the examiner.

Request phrasings live in a versioned table shipped with the package
(data/phrasings.json).  A prompt is always one request sentence plus one
input block; the request goes before or after the input depending on the
variant.  The full matrix is 36 prompts: 4 each for Introduction, Items
Received and Methodology, then 12 for Results over conversations and 12
for Results over locations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence

from .ingest import SourceFormat
from .model import (
    CaseBundle,
    EvidenceItem,
    ItemKind,
    LocationRecord,
    MessageRecord,
    MethodStep,
    ReportSectionKind,
    format_offset,
    to_data,
)
from .transform import reduce_to_csv, render_padded_table

__all__ = [
    "DRAFTED",
    "Placement",
    "SummaryMode",
    "PromptTopic",
    "PromptVariant",
    "PromptSpec",
    "phrasing_table",
    "request_sentence",
    "render_input",
    "render_mandate_text",
    "render_method_steps",
    "render_tool_report_locations",
    "render_lablog_locations",
    "render_tool_report_messages",
    "render_lablog_messages",
    "render_csv_locations",
    "build_prompt",
    "build_matrix",
    "matrix_to_json",
]


class Placement(Enum):
    REQUEST_FIRST = "request_first"
    REQUEST_LAST = "request_last"


class SummaryMode(Enum):
    OVERALL = "overall"
    DAY_BY_DAY = "day_by_day"


class PromptTopic(Enum):
    GENERAL = "general"
    CONVERSATIONS = "conversations"
    LOCATIONS = "locations"


@dataclass(frozen=True)
class PromptVariant:
    placement: Placement
    phrasing_id: int = 0
    summary_mode: Optional[SummaryMode] = None


@dataclass(frozen=True)
class PromptSpec:
    """One prompt of the matrix; its fields, in order, are its document."""

    prompt_id: str
    section: ReportSectionKind
    input_format: SourceFormat
    topic: PromptTopic
    placement: Placement
    phrasing_id: int
    summary_mode: Optional[SummaryMode]
    input_char_count: int
    rendered_text: str

    def input_block(self) -> str:
        if self.placement is Placement.REQUEST_FIRST:
            return self.rendered_text[-self.input_char_count:]
        return self.rendered_text[: self.input_char_count]


@lru_cache(maxsize=1)
def phrasing_table() -> dict:
    text = resources.files("casedraft.data").joinpath("phrasings.json").read_text("utf-8")
    return json.loads(text)


def _phrasing_key(section: ReportSectionKind, mode: Optional[SummaryMode]) -> str:
    if section is ReportSectionKind.RESULTS:
        if mode is None:
            raise ValueError("Results phrasings are keyed by summary mode")
        return f"results_{mode.value}"
    return section.value


def request_sentence(
    section: ReportSectionKind,
    phrasing_id: int = 0,
    summary_mode: Optional[SummaryMode] = None,
) -> str:
    table = phrasing_table()["sections"]
    key = _phrasing_key(section, summary_mode)
    phrasings = table.get(key)
    if not phrasings:
        raise ValueError(f"no phrasings for section {section.value!r}")
    if not 0 <= phrasing_id < len(phrasings):
        raise ValueError(
            f"phrasing_id {phrasing_id} out of bounds for {key!r} (table has {len(phrasings)})"
        )
    return phrasings[phrasing_id]


# ---------------------------------------------------------------------------
# layout renderers: the parsers' inverses

_ROMAN = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
          "xi", "xii", "xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix", "xx"]


def _roman(n: int) -> str:
    return _ROMAN[n - 1] if 1 <= n <= len(_ROMAN) else str(n)


_KIND_TEXT = {ItemKind.PHYSICAL_DEVICE: "physical device", ItemKind.FORENSIC_IMAGE: "forensic image"}


def _item_line(bundle: CaseBundle, item: EvidenceItem) -> str:
    parts = [f"Item {item.item_id}: {item.vendor} {item.model} ({_KIND_TEXT[item.kind]})"]
    profile = bundle.device_profiles.get(item.item_id)
    if item.hash is not None:
        parts.append(f"{item.hash.algorithm} hash {item.hash.digest}")
    elif profile is not None and profile.mac_address:
        parts.append(f"MAC address {profile.mac_address}")
    if item.storage_size is not None:
        parts.append(f"storage {item.storage_size} bytes")
    if item.physical_condition:
        parts.append(f"condition {item.physical_condition}")
    if item.acquisition_methods:
        parts.append("acquisition: " + ", ".join(item.acquisition_methods))
    return ", ".join(parts)


def render_mandate_text(bundle: CaseBundle, with_item_details: bool = False) -> str:
    """Render the mandate in its labeled-block layout; parse_mandate reads
    it back.  with_item_details swaps the bare transmitted-items list for
    full per-item lines (vendor, model, identifier, acquisition)."""
    m = bundle.mandate
    blocks: list[str] = []
    if m.received_date:
        blocks.append(f"Date: {m.received_date:%d.%m.%Y}")
    blocks.append(f"Description: {m.description}")

    if with_item_details and bundle.items:
        lines = ["Items:"]
        for i, item in enumerate(bundle.items, start=1):
            lines.append(f"{i}. {_item_line(bundle, item)}")
        blocks.append("\n".join(lines))
    elif m.transmitted_items:
        lines = ["Items:"]
        for i, entry in enumerate(m.transmitted_items, start=1):
            lines.append(f"{i}. {entry}")
        blocks.append("\n".join(lines))

    lines = ["Mandate: Using the information provided, we ask you to answer the following questions:"]
    for i, q in enumerate(m.questions, start=1):
        lines.append(f"{_roman(i)}. {q}")
    if m.deadline:
        day = m.deadline.day
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(day % 10 if day not in (11, 12, 13) else 0, "th")
        lines.append(
            f"We request that you answer these questions before the "
            f"{day}{suffix} of {m.deadline:%B} {m.deadline:%Y}."
        )
    blocks.append("\n".join(lines))

    if m.investigator_name:
        blocks.append(f"Note: The person mandated is the investigator {m.investigator_name}.")
    return "\n\n".join(blocks) + "\n"


def render_method_steps(steps: Sequence[MethodStep]) -> str:
    """Render the lab log's numbered step table; parse_method_steps reads it back."""
    lines = ["Step\tAction\tPurpose\tTool\tVersion"]
    for s in steps:
        lines.append(
            "\t".join(
                [str(s.ordinal), s.action, s.purpose or "-", s.tool_name or "-", s.tool_version or "-"]
            )
        )
    return "\n".join(lines) + "\n"


def _src_label(french: bool) -> str:
    return "Fichier source" if french else "Source File"


def render_tool_report_locations(
    records: Sequence[LocationRecord], french_labels: bool = False
) -> str:
    """Numbered tool-report location entries; parse_tool_report_locations
    reads them back.  A record's source goes on its one Source File line,
    with its size, so a source must fit on one line and hold no size text
    of its own.  The layout has no related location, which reads back as
    None."""
    out = ["# Source Position Info Confidence Category Deleted"]
    for n, rec in enumerate(records, start=1):
        lat = f"{rec.latitude:.6f}"
        lon = f"{rec.longitude:.6f}"
        if french_labels:
            lat, lon = lat.replace(".", ","), lon.replace(".", ",")
        out.append(f"{n} ({lat}, {lon}) Name: {rec.name}")
        ts = rec.timestamp
        time_part = f"{ts:%m/%d/%Y %H:%M:%S}"
        if ts.utcoffset() and ts.utcoffset().total_seconds() != 0:
            time_part += f"({format_offset(ts)})"
        out.append(f"Hour: {time_part}")
        if rec.source_file or rec.size_bytes is not None:
            size_word = ("Taille", "octets") if french_labels else ("Size", "bytes")
            line = f"{_src_label(french_labels)}: {rec.source_file or ''}"
            if rec.size_bytes is not None:
                line += f" ({size_word[0]} : {rec.size_bytes} {size_word[1]})"
            out.append(line)
        out.append(rec.category)
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def render_lablog_locations(records: Sequence[LocationRecord]) -> str:
    """Lab-log location table; parse_lablog_locations reads it back."""
    out = ["Name\tTime\tCategory\tLatitude\tLongitude\tRelated Location"]
    for rec in records:
        ts = rec.timestamp
        time_part = f"{ts:%d.%m.%Y %H:%M:%S}"
        if ts.utcoffset() and ts.utcoffset().total_seconds() != 0:
            time_part += f"({format_offset(ts)})"
        cells = [rec.name, time_part, rec.category, repr(rec.latitude), repr(rec.longitude)]
        if rec.related_location:
            cells.append(rec.related_location)
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"


def render_tool_report_messages(
    records: Sequence[MessageRecord], french_labels: bool = False
) -> str:
    """Tool-report chat entries; parse_tool_report_messages reads them back."""
    directions = {
        None: "Unknown",
        "incoming": "Entrant" if french_labels else "Incoming",
        "outgoing": "Sortant" if french_labels else "Outgoing",
        "system": "System",
    }
    out: list[str] = []
    for rec in records:
        ts = rec.timestamp
        time_part = f"{ts:%d.%m.%Y %H:%M:%S}" if ts.second else f"{ts:%d.%m.%Y %H:%M}"
        head = f"{time_part}({format_offset(ts)}) Direction:"
        head += directions[rec.direction.value if rec.direction else None]
        if rec.sender:
            head += f", {rec.sender.identifier}"
            if rec.sender.display_name:
                head += f" ({rec.sender.display_name})"
        out.append(head)
        out.extend(rec.body.split("\n"))
        for i, src in enumerate(rec.source_files):
            out.append(f"{_src_label(french_labels)}: {src}" if i == 0 else src)
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def render_lablog_messages(records: Sequence[MessageRecord]) -> str:
    """Lab-log columnar message layout; parse_lablog_messages reads it back,
    but for deleted=False: its "-" reads back as None, like an unknown."""
    out = ["From\tTimestamp: Time\tDeleted\tInstant Message\tStatus", "Body", "Source file information", ""]
    for rec in records:
        sender = rec.sender.as_text() if rec.sender else "-"
        deleted = "Yes" if rec.deleted else "-"
        ts = rec.timestamp
        out.append(f"{sender}\t{ts:%d.%m.%Y %H:%M:%S}({format_offset(ts)})\t{deleted}\t-\t-")
        out.extend(rec.body.split("\n"))
        if rec.source_files:
            out.append(" & ".join(rec.source_files))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def render_csv_locations(records: Sequence[LocationRecord]) -> str:
    """Reduced ' ; '-delimited location table (Name, Latitude, Longitude,
    Timestamp, Related Location); parse_csv_locations reads it back."""
    rows = [["Name", "Latitude", "Longitude", "Timestamp: Time", "Related Location"]]
    for rec in records:
        ts = rec.timestamp
        rows.append(
            [
                rec.name,
                repr(rec.latitude),
                repr(rec.longitude),
                f"{ts:%d.%m.%Y %H:%M:%S}({format_offset(ts)})",
                rec.related_location or "",
            ]
        )
    return render_padded_table(rows, " ; ")


# ---------------------------------------------------------------------------
# input rendering and the matrix

# the drafting plan: each drafted section with its input formats, both in
# matrix order; Discussion and Conclusion stay with the examiner
DRAFTED: dict[ReportSectionKind, tuple[SourceFormat, ...]] = {
    ReportSectionKind.INTRODUCTION: (SourceFormat.MANDATE_TEXT,),
    ReportSectionKind.ITEMS_RECEIVED: (SourceFormat.MANDATE_TEXT,),
    ReportSectionKind.METHODOLOGY: (SourceFormat.LAB_LOG_TABLE,),
    ReportSectionKind.RESULTS: (
        SourceFormat.TOOL_REPORT_EXCERPT, SourceFormat.LAB_LOG_TABLE, SourceFormat.REDUCED_CSV,
    ),
}


def render_input(
    bundle: CaseBundle,
    section: ReportSectionKind,
    input_format: SourceFormat,
    topic: PromptTopic = PromptTopic.GENERAL,
    french_labels: bool = False,
) -> str:
    """Render the bundle data a section draws on, in the requested layout.

    Rendered text defaults to English labels; french_labels restores the
    tool's French ones.  Illegal section/format pairings raise ValueError.
    """
    formats = DRAFTED.get(section)
    if formats is None:
        raise ValueError(f"section {section.value!r} is not drafted from inputs")
    if input_format not in formats:
        raise ValueError(
            f"section {section.value!r} does not accept {input_format.value!r} input"
        )

    if section in (ReportSectionKind.INTRODUCTION, ReportSectionKind.ITEMS_RECEIVED):
        return render_mandate_text(
            bundle, with_item_details=section is ReportSectionKind.ITEMS_RECEIVED
        )
    if section is ReportSectionKind.METHODOLOGY:
        return render_method_steps(bundle.method_steps)

    # Results: concatenate every item's records in item order
    if topic is PromptTopic.CONVERSATIONS:
        messages = bundle.all_messages()
        if input_format is SourceFormat.TOOL_REPORT_EXCERPT:
            return render_tool_report_messages(messages, french_labels)
        if input_format is SourceFormat.LAB_LOG_TABLE:
            return render_lablog_messages(messages)
        return reduce_to_csv(messages)
    if topic is PromptTopic.LOCATIONS:
        locations = bundle.all_locations()
        if input_format is SourceFormat.TOOL_REPORT_EXCERPT:
            return render_tool_report_locations(locations, french_labels)
        if input_format is SourceFormat.LAB_LOG_TABLE:
            return render_lablog_locations(locations)
        return render_csv_locations(locations)
    raise ValueError("Results input needs a topic: conversations or locations")


def build_prompt(
    section: ReportSectionKind,
    input_format: SourceFormat,
    input_text: str,
    variant: PromptVariant,
    topic: PromptTopic = PromptTopic.GENERAL,
) -> PromptSpec:
    """One request sentence plus one input block, in variant order."""
    request = request_sentence(section, variant.phrasing_id, variant.summary_mode)
    if variant.placement is Placement.REQUEST_FIRST:
        rendered = f"{request}\n\n{input_text}"
    else:
        rendered = f"{input_text}\n\n{request}"

    input_digest = hashlib.sha256(input_text.encode("utf-8")).hexdigest()
    mode = variant.summary_mode.value if variant.summary_mode else "-"
    key = "|".join(
        [
            section.value,
            input_format.value,
            topic.value,
            variant.placement.value,
            str(variant.phrasing_id),
            mode,
            input_digest,
        ]
    )
    prompt_id = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    return PromptSpec(
        prompt_id=prompt_id,
        section=section,
        input_format=input_format,
        topic=topic,
        **vars(variant),  # placement, phrasing_id, summary_mode
        input_char_count=len(input_text),
        rendered_text=rendered,
    )


_PLACEMENTS = (Placement.REQUEST_FIRST, Placement.REQUEST_LAST)


def build_matrix(bundle: CaseBundle, french_labels: bool = False) -> list[PromptSpec]:
    """The full 36-prompt experiment matrix, in DRAFTED's order.

    4 prompts each (2 phrasings x 2 placements) for Introduction, Items
    Received and Methodology; 12 each (3 formats x 2 summary modes x 2
    placements) for Results over conversations and over locations.
    """
    prompts: list[PromptSpec] = []
    for section, formats in DRAFTED.items():
        if section is ReportSectionKind.RESULTS:
            topics = (PromptTopic.CONVERSATIONS, PromptTopic.LOCATIONS)
            variants = [
                PromptVariant(placement, 0, mode)
                for mode in (SummaryMode.OVERALL, SummaryMode.DAY_BY_DAY)
                for placement in _PLACEMENTS
            ]
        else:
            topics = (PromptTopic.GENERAL,)
            variants = [
                PromptVariant(placement, phrasing_id)
                for phrasing_id in (0, 1)
                for placement in _PLACEMENTS
            ]
        for topic in topics:
            for fmt in formats:
                text = render_input(bundle, section, fmt, topic, french_labels)
                prompts += [build_prompt(section, fmt, text, v, topic) for v in variants]
    return prompts


def matrix_to_json(prompts: Sequence[PromptSpec]) -> str:
    return json.dumps([to_data(p) for p in prompts], indent=2, ensure_ascii=False) + "\n"
