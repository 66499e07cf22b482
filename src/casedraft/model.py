"""Case domain model: the typed representation of a forensic case bundle.

Everything an examiner hands to the drafting pipeline lives here: the
mandate, the evidence items, extracted location/message records, device
profiles and the lab's method steps.  All value types are immutable after
construction; validation reports issues as data instead of raising.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
from collections import abc
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter
from typing import (
    Callable, Mapping, Optional, TypeVar, Union, get_args, get_origin, get_type_hints,
)

__all__ = [
    "ReportSectionKind",
    "ItemKind",
    "ImageHash",
    "EvidenceItem",
    "DeviceProfile",
    "Direction",
    "Sender",
    "MessageRecord",
    "LocationRecord",
    "Mandate",
    "MethodStep",
    "CaseBundle",
    "ValidationIssue",
    "validate_bundle",
    "to_data",
    "from_data",
    "bundle_to_json",
    "bundle_from_json",
    "format_offset",
    "parse_offset",
]

T = TypeVar("T")


class ReportSectionKind(Enum):
    """A report's six sections, in report order; prompting.DRAFTED names
    the ones a model drafts."""

    INTRODUCTION = "introduction"
    ITEMS_RECEIVED = "items_received"
    METHODOLOGY = "methodology"
    RESULTS = "results"
    DISCUSSION = "discussion"
    CONCLUSION = "conclusion"


class ItemKind(Enum):
    PHYSICAL_DEVICE = "physical_device"
    FORENSIC_IMAGE = "forensic_image"


@dataclass(frozen=True)
class ImageHash:
    algorithm: str  # e.g. "SHA-256"
    digest: str  # hex


@dataclass(frozen=True)
class EvidenceItem:
    item_id: str
    kind: ItemKind
    vendor: str = ""
    model: str = ""
    storage_size: Optional[int] = None  # bytes
    hash: Optional[ImageHash] = None  # forensic images only
    physical_condition: Optional[str] = None  # physical devices only
    acquisition_methods: tuple[str, ...] = ()


_MAC_RE = re.compile(r"^[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}$")


@dataclass(frozen=True)
class DeviceProfile:
    vendor: str = ""
    model_code: str = ""
    os_version: str = ""
    mac_address: str = ""
    timezone: str = ""  # IANA name as reported by the device


class Direction(Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"
    SYSTEM = "system"


@dataclass(frozen=True)
class Sender:
    identifier: str
    display_name: Optional[str] = None

    def as_text(self) -> str:
        if self.display_name:
            return f"{self.identifier} {self.display_name}"
        return self.identifier


@dataclass(frozen=True)
class MessageRecord:
    body: str
    timestamp: datetime  # always offset-aware
    app: str = ""
    sender: Optional[Sender] = None  # None for system events
    direction: Optional[Direction] = None
    source_files: tuple[str, ...] = ()
    deleted: Optional[bool] = None


@dataclass(frozen=True)
class LocationRecord:
    name: str
    timestamp: datetime  # always offset-aware
    category: str = field(metadata={"if_absent": ""})
    latitude: float
    longitude: float
    related_location: Optional[str] = None
    source_file: Optional[str] = None
    size_bytes: Optional[int] = None


@dataclass(frozen=True)
class Mandate:
    description: str = ""
    questions: tuple[str, ...] = ()
    received_date: Optional[date] = None
    deadline: Optional[date] = None
    investigator_name: Optional[str] = None
    suspects: tuple[str, ...] = ()
    transmitted_items: tuple[str, ...] = ()


@dataclass(frozen=True)
class MethodStep:
    ordinal: int
    action: str
    purpose: str = ""
    tool_name: Optional[str] = None
    tool_version: Optional[str] = None


@dataclass(frozen=True)
class CaseBundle:
    mandate: Mandate = field(default_factory=Mandate)
    items: tuple[EvidenceItem, ...] = ()
    device_profiles: Mapping[str, DeviceProfile] = field(default_factory=dict)
    locations: Mapping[str, tuple[LocationRecord, ...]] = field(default_factory=dict)
    messages: Mapping[str, tuple[MessageRecord, ...]] = field(default_factory=dict)
    method_steps: tuple[MethodStep, ...] = ()

    def all_locations(self) -> tuple[LocationRecord, ...]:
        return tuple(rec for recs in self.locations.values() for rec in recs)

    def all_messages(self) -> tuple[MessageRecord, ...]:
        return tuple(rec for recs in self.messages.values() for rec in recs)


@dataclass(frozen=True)
class ValidationIssue:
    path: str  # e.g. "items[0].hash"
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _aware(ts: datetime) -> bool:
    return ts.tzinfo is not None and ts.utcoffset() is not None


def validate_bundle(bundle: CaseBundle) -> list[ValidationIssue]:
    """Check every declared invariant; returns issues instead of raising.

    An empty list means the bundle is fit for prompting and grounding.
    """
    issues: list[ValidationIssue] = []
    out = issues.append

    m = bundle.mandate
    if not m.questions:
        out(ValidationIssue("mandate.questions", "mandate carries no questions"))
    if m.deadline and m.received_date and m.deadline < m.received_date:
        out(ValidationIssue("mandate.deadline", "deadline precedes received date"))

    seen_ids: set[str] = set()
    for i, item in enumerate(bundle.items):
        path = f"items[{i}]"
        if item.item_id in seen_ids:
            out(ValidationIssue(path, f"duplicate item_id {item.item_id!r}"))
        seen_ids.add(item.item_id)
        if item.hash is not None and item.kind is not ItemKind.FORENSIC_IMAGE:
            out(ValidationIssue(f"{path}.hash", "hash only applies to forensic images"))
        if len(set(item.acquisition_methods)) != len(item.acquisition_methods):
            out(ValidationIssue(f"{path}.acquisition_methods", "duplicate methods"))

    for item_id, profile in bundle.device_profiles.items():
        if item_id not in seen_ids:
            out(ValidationIssue(f"device_profiles[{item_id!r}]", "unknown item_id"))
        if not _MAC_RE.match(profile.mac_address):
            out(
                ValidationIssue(
                    f"device_profiles[{item_id!r}].mac_address",
                    f"not six colon-separated hex octets: {profile.mac_address!r}",
                )
            )

    for item_id, recs in bundle.locations.items():
        if item_id not in seen_ids:
            out(ValidationIssue(f"locations[{item_id!r}]", "unknown item_id"))
        for j, rec in enumerate(recs):
            path = f"locations[{item_id!r}][{j}]"
            if not _aware(rec.timestamp):
                out(ValidationIssue(f"{path}.timestamp", "missing UTC offset"))
            if not -90.0 <= rec.latitude <= 90.0:
                out(ValidationIssue(f"{path}.latitude", f"out of range: {rec.latitude}"))
            if not -180.0 <= rec.longitude <= 180.0:
                out(ValidationIssue(f"{path}.longitude", f"out of range: {rec.longitude}"))

    for item_id, mrecs in bundle.messages.items():
        if item_id not in seen_ids:
            out(ValidationIssue(f"messages[{item_id!r}]", "unknown item_id"))
        for j, rec in enumerate(mrecs):
            path = f"messages[{item_id!r}][{j}]"
            if not _aware(rec.timestamp):
                out(ValidationIssue(f"{path}.timestamp", "missing UTC offset"))
            if not rec.body.strip():
                out(ValidationIssue(f"{path}.body", "empty body"))

    ordinals = [s.ordinal for s in bundle.method_steps]
    if ordinals and ordinals != list(range(1, len(ordinals) + 1)):
        out(
            ValidationIssue(
                "method_steps",
                f"ordinals must run 1..{len(ordinals)} without gaps, got {ordinals}",
            )
        )

    return issues


# ---------------------------------------------------------------------------
# offset helpers

def format_offset(ts: datetime) -> str:
    """Render an offset the way the source formats spell it: UTC+0, UTC-5."""
    off = ts.utcoffset()
    if off is None:
        raise ValueError("naive timestamp has no offset to format")
    total = int(off.total_seconds())
    sign = "-" if total < 0 else "+"
    total = abs(total)
    hours, rem = divmod(total, 3600)
    minutes = rem // 60
    if minutes:
        return f"UTC{sign}{hours}:{minutes:02d}"
    return f"UTC{sign}{hours}"


def parse_offset(text: str) -> timezone:
    """Parse UTC+0 / UTC-5 / UTC+5:30 into a fixed-offset timezone; raises
    ValueError on other text, 60 minutes or more, and 24 hours or more."""
    m = re.fullmatch(r"UTC([+-])(\d{1,2})(?::([0-5]\d))?", text.strip())
    if not m:
        raise ValueError(f"unrecognized offset: {text!r}")
    sign = -1 if m.group(1) == "-" else 1
    hours = int(m.group(2))
    minutes = int(m.group(3) or 0)
    return timezone(sign * timedelta(hours=hours, minutes=minutes))


# ---------------------------------------------------------------------------
# serialization: one codec for every dataclass document, driven by the field
# types.  Enums become their values, dates and datetimes ISO text, tuples
# lists, mappings and dataclasses objects (fields in declaration order);
# other values pass through unchanged.  A Union of dataclasses is a tagged
# union, which only decodes: an object's "kind", or a bare string, names its
# member in snake case (DropFacts as drop_facts).  Decoding a value its field
# cannot take, such as one of the wrong JSON type, an unknown enum value or
# kind, or a date that does not exist, raises ValueError naming the field: a
# str, int, float or bool field takes only its own JSON type, except that a
# float field also takes an integer, which stays an int, and a str field
# takes only a string UTF-8 can encode.  Each type's converter is built once.

def to_data(obj) -> dict:
    """The JSON-ready document of a dataclass instance."""
    return _converter(type(obj), False)(obj)


def from_data(cls: type[T], data: Mapping) -> T:
    """Rebuild a dataclass instance (or a tuple of them) from its document,
    or check one value of a scalar field type such as int.  A missing key
    takes the field's default, or the value the field's metadata names
    under "if_absent"; a missing field with neither, or a value its field
    cannot take, raises ValueError naming the field."""
    return _converter(cls, True)(data)


class _Named(ValueError):
    """A field's ValueError, named by the innermost dataclass decoder."""


# the exact types each scalar field accepts: bool is an int to isinstance,
# but true is no number in a document
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
}


def _scalar(types: tuple[type, ...], what: str) -> Callable:
    def check(v):
        if type(v) in types:
            return v
        raise ValueError(f"expected {what}, got {v!r:.40}")

    return check


def _string(v):
    """A str field's value.  Documents and the store are UTF-8, which cannot
    encode a lone surrogate such as a "\\ud800" escape decodes to."""
    if type(v) is not str:
        raise ValueError(f"expected a string, got {v!r:.40}")
    if not v.isascii():
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"expected a string UTF-8 can encode, got {v!r:.40}") from None
    return v


def _one_of(table: dict, key, shown=None):
    """table's entry under key; a key it lacks raises ValueError listing the
    keys and showing the value, by default the key."""
    try:
        return table[key]
    except (KeyError, TypeError):  # a TypeError: an unhashable key, such as a list
        shown = key if shown is None else shown
        raise ValueError(f"expected one of {', '.join(table)}, got {shown!r:.40}") from None


def _tagged(table: dict, v):
    """The tagged union member that v names, decoded by table's decoder."""
    doc = {"kind": v} if isinstance(v, str) else v
    return _one_of(table, doc.get("kind") if isinstance(doc, abc.Mapping) else None, v)(doc)


def _checked(json_type: type, what: str, fn: Callable) -> Callable:
    """fn, after checking that its argument is a json_type."""

    def convert(v):
        if isinstance(v, json_type):
            return fn(v)
        raise ValueError(f"expected {what}, got {v!r:.40}")

    return convert


@functools.cache
def _converter(tp, decode: bool) -> Optional[Callable]:
    """What encodes (or decodes) a value of type tp; None when the value
    passes through unchanged."""
    origin, args = get_origin(tp), get_args(tp)
    if dataclasses.is_dataclass(tp):
        if decode:
            return _checked(abc.Mapping, "a JSON object", _dataclass_decoder(tp))
        return _dataclass_encoder(tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return functools.partial(_one_of, {m.value: m for m in tp}) if decode else attrgetter("value")
    if tp is str:
        return _string if decode else None
    if tp in _SCALARS:
        return _scalar(*_SCALARS[tp]) if decode else None
    if tp in (date, datetime):
        return _checked(str, "a string", tp.fromisoformat) if decode else tp.isoformat
    if origin is Union and type(None) not in args:
        if not decode:
            raise TypeError(f"a tagged union only decodes: {tp}")
        return functools.partial(_tagged, {  # each member under its name in snake case
            re.sub(r"(?<!^)(?=[A-Z])", "_", m.__name__).lower(): _converter(m, True) for m in args
        })
    if origin is Union:
        (inner,) = [a for a in args if a is not type(None)]  # Optional only
        fn = _converter(inner, decode)
        return None if fn is None else lambda v: None if v is None else fn(v)
    if origin is tuple:
        seq = tuple if decode else list
        if args[-1] is Ellipsis:
            fn = _converter(args[0], decode)
            convert = seq if fn is None else lambda v: seq(map(fn, v))
        elif not any(fns := [_converter(a, decode) for a in args]):
            convert = seq
        else:
            convert = lambda v: seq(x if fn is None else fn(x) for fn, x in zip(fns, v))
        return _checked(list, "a JSON array", convert) if decode else convert
    if origin is abc.Mapping:
        fn = _converter(args[1], decode)
        convert = dict if fn is None else lambda v: {k: fn(x) for k, x in v.items()}
        return _checked(abc.Mapping, "a JSON object", convert) if decode else convert
    return None


def _dataclass_encoder(cls) -> Callable:
    """One dict display of the fields, compiled once per type as dataclasses
    compiles __init__: a loop over the fields costs more than the encoding."""
    hints = get_type_hints(cls)
    env: dict[str, Callable] = {}
    entries = []
    for f in dataclasses.fields(cls):
        value = f"obj.{f.name}"
        fn = _converter(hints[f.name], False)
        if fn is not None:
            env[f"_{f.name}"] = fn
            value = f"_{f.name}({value})"
        entries.append(f"{f.name!r}: {value}")
    exec(f"def encode(obj):\n    return {{{', '.join(entries)}}}\n", env)
    return env["encode"]


_REQUIRED, _DEFAULT = object(), object()


def _if_absent(f: dataclasses.Field):
    """What a document without field f decodes to: the field's default, or
    the value its metadata names under "if_absent", or else an error."""
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
        return f.metadata.get("if_absent", _REQUIRED)
    return _DEFAULT


def _dataclass_decoder(cls) -> Callable:
    hints = get_type_hints(cls)
    fields = [
        (f.name, _converter(hints[f.name], True), _if_absent(f)) for f in dataclasses.fields(cls)
    ]

    def decode(data: Mapping):
        kwargs = {}
        for name, fn, absent in fields:
            if name in data:
                try:
                    kwargs[name] = data[name] if fn is None else fn(data[name])
                except _Named:
                    raise
                except ValueError as exc:
                    raise _Named(f"{cls.__name__}.{name}: {exc}") from None
            elif absent is _REQUIRED:
                raise _Named(f"{cls.__name__}.{name}: missing")
            elif absent is not _DEFAULT:
                kwargs[name] = absent
        try:
            return cls(**kwargs)
        except ValueError as exc:  # a check of __post_init__'s, which names its field
            raise _Named(exc) from None

    return decode


def bundle_to_json(bundle: CaseBundle) -> str:
    return json.dumps(to_data(bundle), indent=2, ensure_ascii=False) + "\n"


def bundle_from_json(text: str) -> CaseBundle:
    return from_data(CaseBundle, json.loads(text))
