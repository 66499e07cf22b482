"""End-to-end orchestration: assemble report documents, run the experiment
matrix against configured backends, persist results append-only, and fold
the store into summary statistics.

Which sections take drafts is prompting.DRAFTED's decision; a report
section it does not list is reserved for the examiner.  How each backend
drafts is gateway.drafting's; records are scored and committed in matrix
order whatever the backends.

The store is a line-delimited JSON file.  Records are never rewritten;
re-running an experiment appends under a fresh run identifier derived from
the store's current content, so identical configurations reproduce
identical bytes.  run_experiment is the store's one writer: it opens the
store once, at its first record, and builds, writes and flushes each
record as one line before it builds the next, keeping none of them.
iter_store is its one reader, one record at a time, and next_run_id and
summarize fold any iterable of records, so no command holds the store's
history or a run's records.  Records are written by json and read by
orjson; a line orjson refuses or might not read safely is read by json,
whose verdict stands.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Sequence, Union

import orjson

from .gateway import BackendConfig, GatewayError, GeneratedDraft, drafting
from .grounding import GroundingContext, GroundingReport, score
from .model import CaseBundle, ReportSectionKind, to_data
from .prompting import DRAFTED, PromptSpec, build_matrix
from .transform import render_padded_table

__all__ = [
    "DISCLAIMER_BANNER",
    "SECTION_ORDER",
    "SECTION_TITLES",
    "DraftContent",
    "ManualPlaceholder",
    "ReportDocument",
    "assemble",
    "render_markdown",
    "iter_store",
    "torn_line",
    "next_run_id",
    "run_experiment",
    "SummaryRow",
    "SummaryTable",
    "summarize",
]

DISCLAIMER_BANNER = (
    "DRAFT - produced with machine assistance. Every statement must be "
    "verified against the case file by the responsible examiner before release."
)

SECTION_ORDER: tuple[ReportSectionKind, ...] = tuple(ReportSectionKind)

SECTION_TITLES = {
    ReportSectionKind.INTRODUCTION: "Introduction",
    ReportSectionKind.ITEMS_RECEIVED: "Items Received",
    ReportSectionKind.METHODOLOGY: "Methodology",
    ReportSectionKind.RESULTS: "Results",
    ReportSectionKind.DISCUSSION: "Discussion",
    ReportSectionKind.CONCLUSION: "Conclusion",
}


@dataclass(frozen=True)
class DraftContent:
    draft: GeneratedDraft
    grounding: GroundingReport


@dataclass(frozen=True)
class ManualPlaceholder:
    note: str = "To be completed by the examiner."


SectionContent = Union[DraftContent, ManualPlaceholder]


@dataclass(frozen=True)
class ReportDocument:
    sections: tuple[tuple[ReportSectionKind, SectionContent], ...]

    def content(self, kind: ReportSectionKind) -> SectionContent:
        for k, c in self.sections:
            if k is kind:
                return c
        raise KeyError(kind)


def assemble(
    bundle: CaseBundle,
    drafts: Mapping[ReportSectionKind, GeneratedDraft],
) -> ReportDocument:
    """Compose the six-section document from chosen drafts.

    A section DRAFTED does not list (Discussion, Conclusion) never takes a
    draft; offering one is an error.  Undrafted sections get a placeholder.
    Each drafted section is scored against the bundle so its provenance
    line carries a hallucination count.
    """
    for kind in drafts:
        if kind not in DRAFTED:
            raise ValueError(f"{kind.value} is reserved for the examiner; no draft accepted")

    context = GroundingContext(bundle)
    sections: list[tuple[ReportSectionKind, SectionContent]] = []
    for kind in SECTION_ORDER:
        if kind not in DRAFTED:
            note = (
                "Interpretation is reserved for the examiner."
                if kind is ReportSectionKind.DISCUSSION
                else "Conclusions are reserved for the examiner."
            )
            sections.append((kind, ManualPlaceholder(note)))
            continue
        draft = drafts.get(kind)
        if draft is None:
            sections.append((kind, ManualPlaceholder()))
            continue
        sections.append((kind, DraftContent(draft, score(draft, context, kind))))
    return ReportDocument(tuple(sections))


def render_markdown(document: ReportDocument) -> str:
    """Render the document: disclaimer banner, then one heading per section."""
    out = [f"> {DISCLAIMER_BANNER}", ""]
    for kind, content in document.sections:
        out.append(f"# {SECTION_TITLES[kind]}")
        out.append("")
        if isinstance(content, DraftContent):
            draft = content.draft
            out.append(
                f"<!-- backend={draft.backend_label} prompt={draft.prompt_id} "
                f"created={draft.created_at.isoformat()} "
                f"hallucinations={content.grounding.hallucination_count} -->"
            )
            out.append("")
            out.append(draft.text.rstrip("\n"))
        else:
            out.append(f"*{content.note}*")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# append-only results store

# orjson 3.8 reads nesting of any depth and overflows its own stack, killing
# the process, on a line some 70,000 objects deep; json raises RecursionError
# near the interpreter's recursion limit instead.  Nesting needs an opening
# bracket or brace per level, so a line with no more of them than this is
# too shallow for either limit, and json alone decodes any other line.
_ORJSON_OPENERS = 512
# every byte but the openers, for counting them in one pass with translate
_NOT_OPENERS = bytes(b for b in range(256) if b not in b"{[")


def _decode(line: bytes):
    if len(line.translate(None, _NOT_OPENERS)) <= _ORJSON_OPENERS:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass  # NaN, Infinity, 1e400 and lone surrogates are json's to decide
    return json.loads(line.decode("utf-8"))


def _record(line: bytes) -> Optional[dict]:
    """The JSON object a store line holds as UTF-8 text, else None; every
    store reader uses it.  orjson decodes the raw bytes.  json decodes a
    line orjson refuses (NaN, Infinity, 1e400, a lone-surrogate escape such
    as "\\ud800") or one with more than _ORJSON_OPENERS brackets and braces,
    and json's verdict stands.  A line nested past json's recursion limit is
    no record."""
    try:
        record = _decode(line)
    except (ValueError, RecursionError):  # UnicodeDecodeError too
        return None
    return record if isinstance(record, dict) else None


def _unterminated_tail(fh) -> Optional[tuple[int, int, bytes]]:
    """The final line of a store opened in binary mode when it lacks its
    newline, as (line number, offset, bytes); None when the store is empty
    or ends in a newline.  Only the last byte is read unless it is not a
    newline; then the lines are walked forward, as iter_store walks them."""
    size = fh.seek(0, 2)
    if size == 0:
        return None
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return None
    fh.seek(0)
    offset = 0
    for lineno, line in enumerate(fh, 1):
        offset += len(line)
    return lineno, offset - len(line), line


@contextmanager
def _appending(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """The store opened to append in binary mode.  A store whose final line
    lacks its newline, as a crash mid-write leaves it, first gets that
    newline when the line is a record, and loses the line when it is not."""
    with open(path, "a+b") as fh:
        tail = _unterminated_tail(fh)
        if tail is not None:
            _, start, line = tail
            if _record(line) is not None:
                fh.write(b"\n")
            else:
                fh.truncate(start)
        yield fh


def _line(record: dict) -> bytes:
    return (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


def torn_line(path: Union[str, Path]) -> Optional[int]:
    """The number of the store's final line when a write was torn: the line
    lacks its newline and is not one JSON object.  None otherwise, and for a
    store not yet made."""
    p = Path(path)
    if not p.exists():
        return None
    with open(p, "rb") as fh:
        tail = _unterminated_tail(fh)
    if tail is None or not tail[2].strip() or _record(tail[2]) is not None:
        return None
    return tail[0]


def iter_store(path: Union[str, Path]) -> Iterator[dict]:
    """Every record of the store, in order, decoded one line at a time;
    nothing for a store not yet made.  A torn final line (see torn_line) is
    skipped.  Any other line that is not one JSON object raises ValueError
    naming the store and the line's number when the reader reaches it.
    Lines are decoded by orjson where _record says, which reads an integer
    outside 64 bits as the nearest float (RFC 8259 section 6 lets a parser
    limit the range of numbers); casedraft never writes one."""
    p = Path(path)
    if not p.exists():
        return
    # bytes, so that a write torn inside a character fails as its line does
    with open(p, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                record = _record(line)
                if record is None:
                    if not line.endswith(b"\n"):  # only the final line can lack it
                        return
                    raise ValueError(f"{path}:{lineno}: invalid record")
                yield record


def _wrong_shape(exc: Exception) -> ValueError:
    return ValueError(f"a store record has the wrong shape: {type(exc).__name__}: {exc}")


def next_run_id(existing: Iterable[dict]) -> str:
    """The run identifier after those in any iterable of records, which is
    consumed one record at a time: the first run-NNNN from the number of
    distinct runs plus one upward that no record uses, so that a store with
    a gap (run-0001 and run-0003) never hands out an identifier twice.
    A record whose run_id is no identifier raises ValueError."""
    try:
        runs = {r.get("run_id") for r in existing if r.get("run_id")}
    except (AttributeError, TypeError) as exc:
        raise _wrong_shape(exc) from None
    n = len(runs) + 1
    while f"run-{n:04d}" in runs:
        n += 1
    return f"run-{n:04d}"


def run_experiment(
    bundle: CaseBundle,
    configs: Sequence[BackendConfig],
    store_path: Union[str, Path],
    prompts: Optional[Sequence[PromptSpec]] = None,
) -> tuple[str, int, int]:
    """Run every prompt against every backend, appending one record each,
    and return (run_id, records appended, error records among them).
    A backend failure becomes an error record, never an abort.  Drafts come
    from gateway.drafting and are scored and committed in matrix order,
    backend by backend, so a store is reproducible byte for byte; an
    exception that aborts the run cancels every prompt not yet sent.  Each
    record is written and flushed before the next is built and then
    dropped, so a run holds one record at a time whatever its size."""
    if prompts is None:
        prompts = build_matrix(bundle)
    run_id = next_run_id(iter_store(store_path))
    context = GroundingContext(bundle)

    appended = errors = 0
    store = None  # opened at the first record, so a run aborted before it makes no store
    with drafting(configs, prompts) as calls, ExitStack() as stack:
        for config, backend_calls in zip(configs, calls):
            for prompt, draft_of in zip(prompts, backend_calls):
                base = {"run_id": run_id, "backend": config.name, "prompt": to_data(prompt)}
                try:
                    draft = draft_of()
                    report = score(draft, context, prompt.section, topic=prompt.topic)
                    base.update(record_kind="result", draft=to_data(draft),
                                grounding=to_data(report))
                except GatewayError as exc:
                    base.update(record_kind="error", error=str(exc))
                    errors += 1
                if store is None:
                    store = stack.enter_context(_appending(store_path))
                store.write(_line(base))
                store.flush()  # each record whole on disk before the next is scored
                appended += 1
    return run_id, appended, errors


# ---------------------------------------------------------------------------
# summary statistics

@dataclass(frozen=True)
class SummaryRow:
    backend: str
    section: str
    input_format: str
    count: int
    error_count: int
    mean_latency_s: Optional[float]
    median_latency_s: Optional[float]
    mean_hallucinations: Optional[float]
    mean_completeness: Optional[float]


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]

    def render_text(self) -> str:
        headers = [
            "backend", "section", "format", "n", "err",
            "lat_mean", "lat_median", "halluc_mean", "complete_mean",
        ]
        def fmt(v, spec=".3f"):
            return "-" if v is None else format(v, spec)

        body = [
            [
                r.backend, r.section, r.input_format, str(r.count), str(r.error_count),
                fmt(r.mean_latency_s), fmt(r.median_latency_s),
                fmt(r.mean_hallucinations, ".2f"), fmt(r.mean_completeness, ".3f"),
            ]
            for r in self.rows
        ]
        return render_padded_table([headers] + body, "  ")


def summarize(records: Iterable[dict]) -> SummaryTable:
    """Fold any iterable of store records into per-(backend, section,
    format) stats, one record at a time.

    Order-independent: the same set of records always yields the same table.
    Latency, hallucination and completeness means cover result records;
    error records only count toward count and error_count.  Each group
    keeps its count and its result records' values, not the records.  A
    record of the wrong shape, such as a prompt that is no object or a
    latency that is no number (true and false are none), raises ValueError.
    """
    counts: Counter[tuple[str, str, str]] = Counter()
    values: dict[tuple[str, str, str], tuple[list, list, list]] = {}
    # a field of the wrong type fails where it is used; a key that is no text,
    # and a true or false where a number belongs, are checked once per group,
    # not once per record
    try:
        for record in records:
            prompt = record.get("prompt", {})
            key = (record.get("backend", "?"), prompt.get("section", "?"),
                   prompt.get("input_format", "?"))
            counts[key] += 1
            latencies, hallucinations, completeness = values.setdefault(key, ([], [], []))
            kind = record.get("record_kind")
            if kind == "result":
                latencies.append(record["draft"]["latency_s"])
                hallucinations.append(record["grounding"]["hallucination_count"])
                completeness.append(record["grounding"]["completeness"])
            elif kind != "error":
                raise TypeError(f"record_kind is neither result nor error: {kind!r:.40}")
        for key in counts:
            if not all(isinstance(part, str) for part in key):
                raise TypeError(f"backend, section or format is no string in {key!r:.80}")
            # JSON true and false load as bools, which statistics takes for 1 and 0
            for name, group in zip(("latency_s", "hallucination_count", "completeness"), values[key]):
                if bool in set(map(type, group)):
                    raise TypeError(f"{name} is true or false, not a number, in {key!r:.80}")
        rows = []
        for key in sorted(counts):
            latencies = values[key][0]
            means = [statistics.mean(v) if v else None for v in values[key]]
            rows.append(SummaryRow(
                *key, count=counts[key], error_count=counts[key] - len(latencies),
                mean_latency_s=means[0],
                median_latency_s=statistics.median(latencies) if latencies else None,
                mean_hallucinations=means[1], mean_completeness=means[2],
            ))
    except (AttributeError, KeyError, TypeError) as exc:
        raise _wrong_shape(exc) from None
    return SummaryTable(tuple(rows))
