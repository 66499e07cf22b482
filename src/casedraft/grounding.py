"""Deterministic grounding checks for generated drafts.

Claims are extracted from a draft by the rows of _PATTERNS, one per
patterned kind (timestamps, coordinates, tool versions, byte counts,
filenames, honorific names) in precedence order, and then by the bundle's
roster of person and place names.  They are verified against the case
bundle within two fixed tolerances: COORDINATE_PLACES decimal places for a
coordinate and TIMESTAMP_SLACK for a timestamp.  A claim with no support is a
hallucination.  Completeness is the fraction of the section's required
facts whose key content appears in the draft.  Unknown capitalized
phrases are deliberately not claims; the check is lexical and
conservative, a reviewer's net rather than a lie detector.

score and verify take their evidence as a GroundingContext: one bundle's
roster and lookup sets, built with the context, and the required facts
per (section, topic), each derived and indexed on first use.  Build one
per experiment or report and score every draft against it.
required_facts_for derives a section's facts from a plain bundle; the
context caches its results.  Nothing is cached beyond a
context: no module-level cache is keyed by bundle or text, so evidence
lives exactly as long as the caller keeps its context.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence, Union

from .ingest import (
    HONORIFIC_NAME,
    SourceFormat,
    parse_csv_locations,
    parse_csv_messages,
    parse_lablog_locations,
    parse_lablog_messages,
    parse_mandate,
    parse_method_steps,
    parse_tool_report_locations,
    parse_tool_report_messages,
)
from .model import CaseBundle, Mandate, ReportSectionKind, parse_offset
from .prompting import PromptTopic
from .transform import DEFAULT_CLUSTER_RADIUS_M, LocationCluster, group_locations_spatial

__all__ = [
    "COORDINATE_PLACES",
    "TIMESTAMP_SLACK",
    "ClaimKind",
    "ClaimStatus",
    "Claim",
    "Roster",
    "GroundingContext",
    "extract_claims",
    "verify",
    "TokenPhrase",
    "CoordinateAlternative",
    "RequiredFact",
    "FactCheck",
    "required_facts_for",
    "facts_from_input",
    "GroundingReport",
    "score",
    "tokens_of",
]


COORDINATE_PLACES = 4  # a coordinate claim matches to ~11 m at the equator
TIMESTAMP_SLACK = timedelta(minutes=1)  # a timestamp claim matches within this


class ClaimKind(Enum):
    COORDINATE = "coordinate"
    TIMESTAMP = "timestamp"
    PERSON_NAME = "person_name"
    FILENAME = "filename"
    NUMERIC_VALUE = "numeric_value"
    PLACE_NAME = "place_name"
    TOOL_VERSION = "tool_version"


class ClaimStatus(Enum):
    GROUNDED = "grounded"
    UNGROUNDED = "ungrounded"


@dataclass(frozen=True)
class Claim:
    """A fact a draft states; verify sets its status, extract_claims leaves
    it None."""

    kind: ClaimKind
    surface_text: str
    normalized_value: str
    span: tuple[int, int]
    status: Optional[ClaimStatus] = None


# from a letter or digit to the last letter or digit of its run, so that
# punctuation inside a token stays and punctuation after it goes
_TOKEN_RE = re.compile(r"[0-9a-z](?:[0-9a-z_.:/'’-]*[0-9a-z])?")


def tokens_of(text: str) -> list[str]:
    """Casefolded tokens; filenames, decimals and MACs stay in one piece."""
    return _TOKEN_RE.findall(text.casefold())


def _norm_phrase(text: str) -> str:
    return " ".join(tokens_of(text))


# ---------------------------------------------------------------------------
# rosters: names the bundle itself vouches for

def _fold(text: str) -> str:
    """text lowercased, one character for one, so that each character
    re.IGNORECASE equates with an ASCII letter or digit becomes that letter,
    lowercased.  Beyond ASCII only İ, ı, ſ and the Kelvin sign are such
    characters; İ goes first, as str.lower makes it two."""
    return text.replace("İ", "i").lower().replace("ı", "i").replace("ſ", "s")


_ASCII_RUN = re.compile(r"[\x00-\x7f]+")


@dataclass(frozen=True)
class Roster:
    person_names: tuple[str, ...] = ()
    place_names: tuple[str, ...] = ()

    @cached_property
    def _names(self) -> list[tuple[ClaimKind, re.Pattern, Optional[str], int]]:
        """Each name's claim kind, pattern, anchor and the anchor's offset in
        the name, persons before places so that a person takes precedence
        on overlap.  The anchor is the name's longest run of characters whose
        fold is ASCII, folded; None when the name has no such character."""
        named = [(ClaimKind.PERSON_NAME, p) for p in self.person_names]
        named += [(ClaimKind.PLACE_NAME, p) for p in self.place_names]
        out = []
        for kind, name in named:
            pattern = re.compile(rf"\b{re.escape(name)}\b", re.IGNORECASE)
            run = max(_ASCII_RUN.finditer(_fold(name)), key=lambda m: m.end() - m.start(), default=None)
            out.append((kind, pattern, run.group() if run else None, run.start() if run else 0))
        return out

    def finditer(self, text: str) -> Iterator[tuple[ClaimKind, re.Match]]:
        """The roster's names in text as whole words, case-insensitively,
        each with its claim kind.

        A name matches one character of text for each of its own, and every
        character a name's anchor matches folds to the anchor's character,
        so wherever the name matches, its folded anchor occurs in the folded
        text at the name's start plus the anchor's offset.  str.find gives those
        occurrences, overlapping ones included, and the name's pattern is
        tried only at the starts they imply.  A name without an anchor is
        scanned by its pattern at every position.  Matches come out name by
        name, persons before places, each name's own matches left to right
        and non-overlapping, as one re.finditer per name would give.
        """
        folded = _fold(text)
        for kind, pattern, anchor, offset in self._names:
            if anchor is None:
                for m in pattern.finditer(text):
                    yield kind, m
                continue
            end = 0
            at = folded.find(anchor)
            while at >= 0:
                start = at - offset
                if start >= end:
                    m = pattern.match(text, start)
                    if m:
                        end = m.end()
                        yield kind, m
                at = folded.find(anchor, at + 1)


def _distinct(names: list[str]) -> tuple[str, ...]:
    """The first spelling of each name's normalized form, unless it is blank."""
    seen: set[str] = set()
    out = []
    for s in names:
        key = _norm_phrase(s)
        if key and key not in seen:
            seen.add(key)
            out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# claim extraction

_COORD_PAIR = re.compile(r"(-?\d{1,3}[.,]\d{3,})\s*,\s+(-?\d{1,3}[.,]\d{3,})")
_TIMESTAMP = re.compile(
    r"\b(\d{2})([./])(\d{2})\2(\d{4})\s+(\d{1,2}):(\d{2})(?::(\d{2}))?"
    r"(?:\s*\(?(UTC[+-]\d{1,2}(?::\d{2})?)\)?)?"
)
_VERSION = re.compile(r"\b\d{1,3}(?:\.\d{1,3}){2,}\b")
_BYTE_COUNT = re.compile(r"\b(\d{4,})\s*(?:bytes|octets)\b", re.IGNORECASE)
_FILENAME_EXTENSIONS = (
    r"jpe?g|png|gif|heic|mp4|mov|avi|amr|"
    r"db-wal|db-shm|db|sqlite|plist|txt|csv|pdf|docx?|xlsx?|zip|bin|log"
)
_FILENAME = re.compile(rf"\b[\w][\w-]*(?:\.[\w-]+)*\.(?:{_FILENAME_EXTENSIONS})\b", re.IGNORECASE)


def _timestamp(m: re.Match) -> Optional[str]:
    """The instant m states, None when its date, time or offset is not real."""
    a, b, sep, c = int(m.group(1)), int(m.group(3)), m.group(2), int(m.group(4))
    day, month = (a, b) if sep == "." else (b, a)
    hour, minute, second = int(m.group(5)), int(m.group(6)), int(m.group(7) or 0)
    offset = m.group(8) or ""
    try:
        datetime(c, month, day, hour, minute, second, tzinfo=parse_offset(offset) if offset else None)
    except ValueError:
        return None
    normalized = f"{c:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}"
    return f"{normalized} {offset}" if offset else normalized


def _coordinate(m: re.Match) -> Optional[str]:
    """The pair m states as "lat,lon", None when it is off the globe."""
    lat, lon = (float(g.replace(",", ".")) for g in m.groups())
    if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
        return f"{lat:.6f},{lon:.6f}"
    return None


def _anywhere(gate: str, flags: int = 0) -> Callable[[str], Optional[int]]:
    """The gate of a pattern each match of which holds a hit of gate."""
    search = re.compile(gate, flags).search
    return lambda text: 0 if search(text) else None


def _from_first(gate: str) -> Callable[[str], Optional[int]]:
    """The gate of a pattern each match of which starts where a hit of gate
    starts: the scan starts at the first hit, since \\b at a scan's start
    still looks at the character before it."""
    search = re.compile(gate).search
    return lambda text: (m := search(text)) and m.start()


def _names_bytes(text: str) -> Optional[int]:
    """_BYTE_COUNT ignores case, so each of its matches folds to text that
    holds "byte" or "octet"."""
    folded = _fold(text)
    return 0 if "byte" in folded or "octet" in folded else None


def _phrase(m: re.Match) -> str:
    return _norm_phrase(m.group(0))


# Each patterned claim kind as (kind, pattern, gate, value), in precedence
# order: on overlapping spans the earlier row's claim stands, and the
# roster's names come after every row.  A pattern led by a class or \b makes
# re try every position of a draft, so gate(draft) first looks for text that
# every match of the pattern contains, and gives the position the scan
# starts at, None when the draft holds no match; the regex gates are
# searches led by a literal, which re skips ahead to.  value(match) is the
# claim's normalized value, None when the match is no claim.
_PATTERNS = (
    (ClaimKind.TIMESTAMP, _TIMESTAMP, _anywhere(r":\d{2}"), _timestamp),
    (ClaimKind.COORDINATE, _COORD_PAIR, _anywhere(r",\s+-?\d{1,3}[.,]\d{3}"), _coordinate),
    (ClaimKind.TOOL_VERSION, _VERSION, _anywhere(r"\.\d{1,3}\.\d"), lambda m: m.group(0)),
    (ClaimKind.NUMERIC_VALUE, _BYTE_COUNT, _names_bytes, lambda m: m.group(1)),
    (ClaimKind.FILENAME, _FILENAME, _anywhere(rf"\.(?:{_FILENAME_EXTENSIONS})\b", re.IGNORECASE),
     lambda m: m.group(0).casefold()),
    # case-sensitive like the pattern; the \s keeps a leading "Draft" out
    (ClaimKind.PERSON_NAME, HONORIFIC_NAME, _from_first(r"(?:M(?:rs?|s|me|lle)|Dr)\.?\s"), _phrase),
)


def extract_claims(draft_text: str, roster: Optional[Roster] = None) -> list[Claim]:
    """Pattern- and roster-based claim extraction, earlier kinds take
    precedence on overlapping spans."""
    found = chain(
        ((kind, m, value) for kind, pattern, gate, value in _PATTERNS
         if (start := gate(draft_text)) is not None for m in pattern.finditer(draft_text, start)),
        ((kind, m, _phrase) for kind, m in (roster.finditer(draft_text) if roster else ())),
    )
    claims: list[Claim] = []
    starts, ends = [], []  # taken spans never overlap, so sorted by start their ends ascend too
    for kind, m, value in found:
        start, end = span = m.span()
        before = bisect_left(starts, end)  # spans starting before this one ends
        if before and ends[before - 1] > start:
            continue
        normalized = value(m)
        if normalized is None:
            continue
        i = bisect_left(starts, start)
        starts.insert(i, start)
        ends.insert(i, end)
        claims.append(Claim(kind, m.group(0), normalized, span))
    claims.sort(key=lambda c: c.span)
    return claims


# ---------------------------------------------------------------------------
# verification against the bundle

class GroundingContext:
    """What one bundle offers as evidence for grounding drafts.

    Built once: the roster, the bundle's location clusters, and the
    bundle's values in the shape each claim kind is looked up by, within
    the tolerances COORDINATE_PLACES and TIMESTAMP_SLACK.  The required
    facts per (section, topic) are derived on first use, from those
    clusters, and indexed by what satisfies them; each coordinate claim
    verify sees is parsed once, into a memo score reads.  All of it is
    kept for the life of the context, and the caller owns that life:
    pipeline.run_experiment and pipeline.assemble build one context per
    call and score every draft against it.  The bundle must not change
    while a context built from it is in use.
    """

    def __init__(self, bundle: CaseBundle):
        self.bundle = bundle
        self._facts: dict[tuple, tuple] = {}  # facts and their index, by (section, topic)
        self._claimed_coords: dict[str, tuple[float, float]] = {}  # by normalized value, rounded
        self.coords: set[tuple[float, float]] = set()
        self.filenames: set[str] = set()
        self.sizes: set[int] = set()
        self.versions: set[str] = set()
        aware: list[datetime] = []
        walls: list[datetime] = []
        persons = list(bundle.mandate.suspects)
        if bundle.mandate.investigator_name:
            persons.append(bundle.mandate.investigator_name)
        identifiers: list[str] = []
        places: list[str] = []

        def add_instant(ts: datetime) -> None:
            if ts.utcoffset() is not None:
                aware.append(ts)
            walls.append(ts.replace(tzinfo=None))

        def add_source(text: str) -> None:
            self.filenames.update(_path_components(text))
            # stored source strings often carry "(Size : N bytes)" annotations
            for m in _BYTE_COUNT.finditer(text):
                try:
                    self.sizes.add(int(m.group(1)))
                except ValueError:  # more digits than int() converts
                    continue

        locations = bundle.all_locations()
        # clustered once: Results' location facts are built from these too
        self.clusters = group_locations_spatial(locations, DEFAULT_CLUSTER_RADIUS_M)
        # a cluster's centroid satisfies its required fact, so it grounds too
        for cluster in self.clusters:
            self.coords.add(_rounded(*cluster.centroid))
        for rec in locations:
            self.coords.add(_rounded(rec.latitude, rec.longitude))
            add_instant(rec.timestamp)
            self.filenames.add(rec.name.casefold())
            if rec.source_file:
                add_source(rec.source_file)
            if rec.related_location:
                places.append(rec.related_location)
                for segment in rec.related_location.split(","):
                    segment = segment.strip()
                    if segment and not segment.isdigit():
                        places.append(segment)
            if rec.size_bytes is not None:
                self.sizes.add(rec.size_bytes)

        for msg in bundle.all_messages():
            add_instant(msg.timestamp)
            for src in msg.source_files:
                add_source(src)
            if msg.sender:
                identifiers.append(msg.sender.identifier)
                if msg.sender.display_name:
                    persons.append(msg.sender.display_name)

        for item in bundle.items:
            if item.storage_size is not None:
                self.sizes.add(item.storage_size)

        for step in bundle.method_steps:
            if step.tool_version:
                self.versions.add(step.tool_version)
        for profile in bundle.device_profiles.values():
            if profile.os_version:
                self.versions.add(profile.os_version)

        self.aware_instants = sorted(aware)
        self.wall_instants = sorted(walls)
        self.roster = Roster(person_names=_distinct(persons), place_names=_distinct(places))
        # a place claim never holds a newline, so one joined string answers
        # "is it a substring of some place" in a single search; each comma
        # segment's form lies in its whole place's, so distinct places do
        self.place_names = "\n".join(_norm_phrase(p) for p in self.roster.place_names)
        # each person as a token sequence, and every contiguous run of
        # tokens inside one; the identifiers ground but are no roster names
        self.persons: set[tuple[str, ...]] = set()
        self.person_parts: set[tuple[str, ...]] = set()
        for name in chain(self.roster.person_names, identifiers):
            tokens = tuple(tokens_of(name))
            self.persons.add(tokens)
            self.person_parts.update(_token_runs(tokens))

    def required_facts(
        self, section: ReportSectionKind, topic: Optional[PromptTopic] = None
    ) -> tuple[RequiredFact, ...]:
        """required_facts_for this context's bundle, derived once per
        (section, topic) from the context's clusters."""
        return self._fact_index(section, topic)[0]

    def _fact_index(self, section: ReportSectionKind, topic: Optional[PromptTopic]) -> tuple:
        """The required facts and their index: each rounded coordinate
        alternative to the indices of its facts, and each phrase alternative
        with tokens as (fact index, tokens), filed under its least token,
        which a draft must hold to satisfy the phrase."""
        key = (section, topic)
        index = self._facts.get(key)
        if index is None:
            facts = tuple(required_facts_for(section, self.bundle, topic, clusters=self.clusters))
            by_coord: dict[tuple[float, float], list[int]] = {}
            by_token: dict[str, list[tuple[int, frozenset[str]]]] = {}
            for i, fact in enumerate(facts):
                for alt in fact.alternatives:
                    if isinstance(alt, CoordinateAlternative):
                        by_coord.setdefault(_rounded(alt.latitude, alt.longitude), []).append(i)
                    elif alt.tokens:
                        by_token.setdefault(min(alt.tokens), []).append((i, alt.tokens))
            index = self._facts[key] = (facts, by_coord, by_token)
        return index


_PATH_SEPARATORS = re.compile(r"[/\\\s]+")


def _path_components(path: str) -> set[str]:
    return {c for c in _PATH_SEPARATORS.split(path.casefold()) if c}


def _token_runs(tokens: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """Every non-empty contiguous run of tokens."""
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            yield tokens[i:j]


def _near(instants: list[datetime], claimed: datetime) -> bool:
    """Whether some instant of the sorted list lies within TIMESTAMP_SLACK
    of claimed; only the two instants around claimed's place in the list
    can."""
    i = bisect_left(instants, claimed)
    return any(abs(claimed - t) <= TIMESTAMP_SLACK for t in instants[max(i - 1, 0):i + 1])


def _timestamp_grounded(normalized: str, context: GroundingContext) -> bool:
    parts = normalized.split(" ")
    naive = datetime.fromisoformat(parts[0])
    if len(parts) > 1:
        return _near(context.aware_instants, naive.replace(tzinfo=parse_offset(parts[1])))
    # no offset stated: match wall-clock time as each record displays it
    return _near(context.wall_instants, naive)


def _rounded(latitude: float, longitude: float) -> tuple[float, float]:
    return round(latitude, COORDINATE_PLACES), round(longitude, COORDINATE_PLACES)


def _claim_grounded(claim: Claim, context: GroundingContext) -> bool:
    value = claim.normalized_value
    if claim.kind is ClaimKind.COORDINATE:
        # parsed once per context, as score looks the rounded pair up again
        rounded = context._claimed_coords.get(value)
        if rounded is None:
            rounded = context._claimed_coords[value] = _rounded(*map(float, value.split(",")))
        return rounded in context.coords
    if claim.kind is ClaimKind.TIMESTAMP:
        return _timestamp_grounded(value, context)
    if claim.kind is ClaimKind.PERSON_NAME:
        # whole tokens only: "Mr Sforz" is no part of "Mr Sforza"
        tokens = tuple(value.split())
        return tokens in context.person_parts or any(run in context.persons for run in _token_runs(tokens))
    if claim.kind is ClaimKind.FILENAME:
        return value in context.filenames
    if claim.kind is ClaimKind.PLACE_NAME:
        return value in context.place_names
    if claim.kind is ClaimKind.TOOL_VERSION:
        return value in context.versions
    if claim.kind is ClaimKind.NUMERIC_VALUE:
        try:
            return int(value) in context.sizes
        except ValueError:  # more digits than int() converts: no size of the bundle
            return False
    return False


def verify(claims: Sequence[Claim], context: GroundingContext) -> list[Claim]:
    """Each claim with its status set: grounded iff the context's bundle
    supports it within COORDINATE_PLACES and TIMESTAMP_SLACK."""
    return [
        Claim(
            c.kind, c.surface_text, c.normalized_value, c.span,
            ClaimStatus.GROUNDED if _claim_grounded(c, context) else ClaimStatus.UNGROUNDED,
        )
        for c in claims
    ]


# ---------------------------------------------------------------------------
# required facts

@dataclass(frozen=True)
class TokenPhrase:
    text: str

    @cached_property
    def tokens(self) -> frozenset[str]:
        return frozenset(tokens_of(self.text))


@dataclass(frozen=True)
class CoordinateAlternative:
    latitude: float
    longitude: float


FactAlternative = Union[TokenPhrase, CoordinateAlternative]


@dataclass(frozen=True)
class RequiredFact:
    """A fact a draft satisfies through any one of its alternatives: a
    phrase all of whose tokens it holds (a phrase without tokens never
    holds), or a coordinate it claims, equal at COORDINATE_PLACES."""

    description: str
    alternatives: tuple[FactAlternative, ...]

    @cached_property
    def _checks(self) -> tuple[FactCheck, FactCheck]:
        """Both results a draft can earn, built once per fact, not per draft."""
        return FactCheck(self.description, False), FactCheck(self.description, True)


@dataclass(frozen=True)
class FactCheck:
    description: str
    satisfied: bool


def _phrase_fact(description: str, text: str) -> RequiredFact:
    return RequiredFact(description, (TokenPhrase(text),))


def _mandate_intro_facts(mandate: Mandate) -> list[RequiredFact]:
    facts = [_phrase_fact(f"question {i}", q) for i, q in enumerate(mandate.questions, 1)]
    facts += [_phrase_fact(f"suspect {s}", s) for s in mandate.suspects]
    if mandate.investigator_name:
        facts.append(_phrase_fact("investigator", mandate.investigator_name))
    facts += [_phrase_fact(f"transmitted item {i}", t) for i, t in enumerate(mandate.transmitted_items, 1)]
    return facts


def _item_facts_from_lines(lines: Sequence[str]) -> list[RequiredFact]:
    facts: list[RequiredFact] = []
    for line in lines:
        m = re.match(r"Item\s+(\S+?):\s+(.+?)\s*\(", line)
        if not m:
            facts.append(_phrase_fact("item", line))
            continue
        item_ref = m.group(1)
        if tokens_of(m.group(2)):
            facts.append(_phrase_fact(f"item {item_ref} make and model", m.group(2)))
        idents: list[FactAlternative] = []
        hm = re.search(r"\bhash\s+([0-9A-Fa-f]{8,})", line)
        if hm:
            idents.append(TokenPhrase(hm.group(1)))
        mm = re.search(r"\bMAC address\s+(\S+)", line)
        if mm:
            idents.append(TokenPhrase(mm.group(1)))
        if idents:
            facts.append(RequiredFact(f"item {item_ref} identifier", tuple(idents)))
        am = re.search(r"\bacquisition:\s*(.+)$", line)
        if am:
            facts.append(_phrase_fact(f"item {item_ref} acquisition", am.group(1)))
    return facts


def _items_received_facts(bundle: CaseBundle) -> list[RequiredFact]:
    facts: list[RequiredFact] = []
    for item in bundle.items:
        # an item recorded without make or model has no such fact to state
        make_and_model = f"{item.vendor} {item.model}"
        if tokens_of(make_and_model):
            facts.append(_phrase_fact(f"item {item.item_id} make and model", make_and_model))
        idents: list[FactAlternative] = []
        if item.hash is not None:
            idents.append(TokenPhrase(item.hash.digest))
        profile = bundle.device_profiles.get(item.item_id)
        if profile is not None and profile.mac_address:
            idents.append(TokenPhrase(profile.mac_address))
        if idents:
            facts.append(RequiredFact(f"item {item.item_id} identifier", tuple(idents)))
        if item.acquisition_methods:
            facts.append(
                _phrase_fact(f"item {item.item_id} acquisition", ", ".join(item.acquisition_methods))
            )
    return facts


def _method_facts(steps) -> list[RequiredFact]:
    facts: list[RequiredFact] = []
    for step in steps:
        facts.append(_phrase_fact(f"step {step.ordinal} action", step.action))
        if step.tool_name:
            facts.append(_phrase_fact(f"step {step.ordinal} tool", step.tool_name))
    return facts


def _message_facts(messages) -> list[RequiredFact]:
    return [
        _phrase_fact(f"message {i}", " ".join(msg.body.split()))
        for i, msg in enumerate(messages, 1)
    ]


def _location_cluster_facts(
    records, clusters: Optional[Sequence[LocationCluster]] = None
) -> list[RequiredFact]:
    if clusters is None:
        clusters = group_locations_spatial(records, DEFAULT_CLUSTER_RADIUS_M)
    facts: list[RequiredFact] = []
    for cluster in clusters:
        alts: list[FactAlternative] = [TokenPhrase(cluster.label)]
        alts.append(CoordinateAlternative(*cluster.centroid))
        for idx in cluster.member_indices:
            alts.append(CoordinateAlternative(records[idx].latitude, records[idx].longitude))
        facts.append(RequiredFact(f"location cluster {cluster.label}", tuple(alts)))
    return facts


def required_facts_for(
    section: ReportSectionKind,
    bundle: CaseBundle,
    topic: Optional[PromptTopic] = None,
    *,
    clusters: Optional[Sequence[LocationCluster]] = None,
) -> list[RequiredFact]:
    """The facts a draft of this section must carry, derived from the bundle.

    For Results, topic narrows the facts to conversations or locations;
    left unset or general, both apply.  Items land at the end of the
    Introduction list; Discussion and Conclusion require nothing (never
    drafted).  clusters, when given, must be group_locations_spatial of
    bundle.all_locations() at DEFAULT_CLUSTER_RADIUS_M; the locations are
    clustered here otherwise.
    """
    if section is ReportSectionKind.INTRODUCTION:
        return _mandate_intro_facts(bundle.mandate)
    if section is ReportSectionKind.ITEMS_RECEIVED:
        return _items_received_facts(bundle)
    if section is ReportSectionKind.METHODOLOGY:
        return _method_facts(bundle.method_steps)
    if section is ReportSectionKind.RESULTS:
        facts: list[RequiredFact] = []
        if topic is not PromptTopic.LOCATIONS:
            facts += _message_facts(bundle.all_messages())
        if topic is not PromptTopic.CONVERSATIONS:
            facts += _location_cluster_facts(bundle.all_locations(), clusters)
        return facts
    return []


def facts_from_input(
    section: ReportSectionKind,
    input_format: SourceFormat,
    topic: Optional[PromptTopic],
    input_text: str,
) -> list[RequiredFact]:
    """Rebuild the required-fact list from a rendered input block alone.

    Mirrors required_facts_for: parsing a faithfully rendered input yields
    the same facts the bundle would require.  This is what lets a fault
    profile drop or keep exact facts without seeing the bundle.
    """
    if section is ReportSectionKind.INTRODUCTION:
        mandate, _ = parse_mandate(input_text)
        return _mandate_intro_facts(mandate)
    if section is ReportSectionKind.ITEMS_RECEIVED:
        mandate, _ = parse_mandate(input_text)
        return _item_facts_from_lines(mandate.transmitted_items)
    if section is ReportSectionKind.METHODOLOGY:
        steps, _ = parse_method_steps(input_text)
        return _method_facts(steps)
    if section is ReportSectionKind.RESULTS and topic is PromptTopic.CONVERSATIONS:
        parser = {
            SourceFormat.TOOL_REPORT_EXCERPT: parse_tool_report_messages,
            SourceFormat.LAB_LOG_TABLE: parse_lablog_messages,
            SourceFormat.REDUCED_CSV: parse_csv_messages,
        }[input_format]
        messages, _ = parser(input_text)
        return _message_facts(messages)
    if section is ReportSectionKind.RESULTS and topic is PromptTopic.LOCATIONS:
        parser = {
            SourceFormat.TOOL_REPORT_EXCERPT: parse_tool_report_locations,
            SourceFormat.LAB_LOG_TABLE: parse_lablog_locations,
            SourceFormat.REDUCED_CSV: parse_csv_locations,
        }[input_format]
        records, _ = parser(input_text)
        return _location_cluster_facts(records)
    topic_value = topic.value if topic else None
    raise ValueError(f"no fact derivation for {section.value!r} with topic {topic_value!r}")


# ---------------------------------------------------------------------------
# scoring

@dataclass(frozen=True)
class GroundingReport:
    """One draft's grounding; its fields, in order, are its document."""

    draft_ref: str
    hallucination_count: int
    completeness: float
    claims: tuple[Claim, ...]
    required_facts: tuple[FactCheck, ...]


def score(
    draft,
    context: GroundingContext,
    section: ReportSectionKind,
    topic: Optional[PromptTopic] = None,
) -> GroundingReport:
    """Extract, verify and tally against the context's evidence.  draft is
    a GeneratedDraft or plain text."""
    if isinstance(draft, str):
        text, ref = draft, "text"
    else:
        text = draft.text
        ref = f"{draft.backend_label}:{draft.prompt_id}"

    checked = verify(extract_claims(text, context.roster), context)
    hallucinations = sum(1 for c in checked if c.status is ClaimStatus.UNGROUNDED)

    facts, by_coord, by_token = context._fact_index(section, topic)
    met: set[int] = set()
    for c in checked:
        if c.kind is ClaimKind.COORDINATE:
            met.update(by_coord.get(context._claimed_coords[c.normalized_value], ()))
    draft_tokens = set(tokens_of(text))
    for token in by_token.keys() & draft_tokens:
        met.update(i for i, wanted in by_token[token] if wanted <= draft_tokens)
    results = tuple(f._checks[i in met] for i, f in enumerate(facts))
    completeness = sum(r.satisfied for r in results) / len(results) if results else 1.0

    return GroundingReport(
        draft_ref=ref,
        hallucination_count=hallucinations,
        completeness=completeness,
        claims=tuple(checked),
        required_facts=results,
    )
