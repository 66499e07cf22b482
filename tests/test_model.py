"""Case model: section kinds, validation rules, JSON round trip."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Union

import pytest
from hypothesis import given, strategies as st

from casedraft.model import (
    CaseBundle,
    DeviceProfile,
    Direction,
    EvidenceItem,
    ImageHash,
    ItemKind,
    LocationRecord,
    Mandate,
    MessageRecord,
    MethodStep,
    ReportSectionKind,
    Sender,
    bundle_from_json,
    bundle_to_json,
    format_offset,
    from_data,
    parse_offset,
    to_data,
    validate_bundle,
)
from casedraft.transform import LocationCluster

UTC = timezone.utc


@dataclass(frozen=True)
class _Signed:
    by: Union[ImageHash, Sender]


# --- report sections --------------------------------------------------------

def test_exactly_six_sections():
    assert len(list(ReportSectionKind)) == 6


# --- validation -------------------------------------------------------------

def _minimal_bundle(**overrides) -> CaseBundle:
    base = dict(
        mandate=Mandate(description="d", questions=("Who?",)),
        items=(EvidenceItem(item_id="A", kind=ItemKind.PHYSICAL_DEVICE, vendor="V", model="M"),),
    )
    base.update(overrides)
    return CaseBundle(**base)


def test_valid_minimal_bundle_has_no_issues():
    assert validate_bundle(_minimal_bundle()) == []


def test_empty_questions_flagged_at_mandate_questions():
    bundle = _minimal_bundle(mandate=Mandate(description="d", questions=()))
    issues = validate_bundle(bundle)
    assert len(issues) == 1
    assert issues[0].path == "mandate.questions"


def test_deadline_before_received_date_flagged():
    bundle = _minimal_bundle(
        mandate=Mandate(
            description="d",
            questions=("Who?",),
            received_date=date(2023, 10, 1),
            deadline=date(2023, 9, 1),
        )
    )
    assert any("deadline" in issue.path for issue in validate_bundle(bundle))


def test_duplicate_item_ids_flagged():
    item = EvidenceItem(item_id="A", kind=ItemKind.PHYSICAL_DEVICE, vendor="V", model="M")
    bundle = _minimal_bundle(items=(item, item))
    assert any("item" in issue.path for issue in validate_bundle(bundle))


def test_hash_on_physical_device_flagged():
    bundle = _minimal_bundle(
        items=(
            EvidenceItem(
                item_id="A",
                kind=ItemKind.PHYSICAL_DEVICE,
                vendor="V",
                model="M",
                hash=ImageHash(algorithm="SHA-256", digest="ab" * 32),
            ),
        )
    )
    assert any("hash" in issue.message.lower() for issue in validate_bundle(bundle))


def test_hash_on_forensic_image_accepted():
    bundle = _minimal_bundle(
        items=(
            EvidenceItem(
                item_id="A",
                kind=ItemKind.FORENSIC_IMAGE,
                vendor="V",
                model="M",
                hash=ImageHash(algorithm="SHA-256", digest="ab" * 32),
            ),
        )
    )
    assert validate_bundle(bundle) == []


def test_unknown_map_key_flagged():
    bundle = _minimal_bundle(
        locations={
            "GHOST": (
                LocationRecord(
                    name="x.jpg",
                    timestamp=datetime(2019, 2, 14, tzinfo=UTC),
                    category="c",
                    latitude=0.0,
                    longitude=0.0,
                ),
            )
        }
    )
    assert any("GHOST" in issue.path for issue in validate_bundle(bundle))


def test_naive_timestamp_flagged():
    bundle = _minimal_bundle(
        messages={
            "A": (MessageRecord(body="hi", timestamp=datetime(2019, 2, 5, 12, 16)),)
        }
    )
    assert any("timestamp" in issue.path for issue in validate_bundle(bundle))


def test_out_of_range_latitude_flagged():
    bundle = _minimal_bundle(
        locations={
            "A": (
                LocationRecord(
                    name="x.jpg",
                    timestamp=datetime(2019, 2, 14, tzinfo=UTC),
                    category="c",
                    latitude=91.0,
                    longitude=0.0,
                ),
            )
        }
    )
    assert any("latitude" in issue.path for issue in validate_bundle(bundle))


def test_noncontiguous_step_ordinals_flagged():
    bundle = _minimal_bundle(
        method_steps=(MethodStep(ordinal=1, action="a"), MethodStep(ordinal=3, action="b"))
    )
    assert any("method_steps" in issue.path for issue in validate_bundle(bundle))


# --- serialization ----------------------------------------------------------

def test_bundle_json_round_trip(golden_bundle):
    text = bundle_to_json(golden_bundle)
    assert text.endswith("\n")
    again = bundle_from_json(text)
    assert again == golden_bundle
    # stable representation
    assert bundle_to_json(again) == text


def test_round_trip_preserves_offsets(golden_bundle):
    again = bundle_from_json(bundle_to_json(golden_bundle))
    for original, restored in zip(golden_bundle.all_messages(), again.all_messages()):
        assert original.timestamp == restored.timestamp
        assert original.timestamp.utcoffset() == restored.timestamp.utcoffset()


def _every_kind_bundle() -> CaseBundle:
    """Enums, a date, datetimes at two offsets, tuples, mappings, optional
    fields set and unset, nested dataclasses and an int latitude."""
    plus1 = timezone(timedelta(hours=1))
    return CaseBundle(
        mandate=Mandate(
            description="Théft of a phone",
            questions=("Who met?",),
            received_date=date(2019, 2, 1),
            investigator_name="X",
            suspects=("Mr Sforza",),
        ),
        items=(
            EvidenceItem(
                "S1", ItemKind.PHYSICAL_DEVICE, "Samsung", "S6", storage_size=32,
                physical_condition="scratched", acquisition_methods=("logical",),
            ),
            EvidenceItem("IMG", ItemKind.FORENSIC_IMAGE, "", "", hash=ImageHash("SHA-256", "ab")),
        ),
        device_profiles={"S1": DeviceProfile("Samsung", "SM-G925F", "7.0", "00:11:22:33:44:55", "Europe/Paris")},
        locations={
            "S1": (
                LocationRecord(
                    "a.jpg", datetime(2019, 2, 14, 14, 33, 44, tzinfo=plus1), "Media", 38, -77.5,
                    related_location="Healy Hall", source_file="DCIM/a.jpg", size_bytes=1024,
                ),
            )
        },
        messages={
            "S1": (
                MessageRecord(
                    "hi", datetime(2019, 2, 5, 12, 16, tzinfo=UTC), app="Telegram",
                    sender=Sender("695862679", "Wonder Woman"), direction=Direction.INCOMING,
                    source_files=("cache4.db",), deleted=False,
                ),
                MessageRecord("joined", datetime(2019, 2, 5, 12, 17, tzinfo=UTC)),
            )
        },
        method_steps=(MethodStep(1, "Acquire", tool_name="UFED", tool_version="7.5.0"),),
    )


EVERY_KIND_JSON = """\
{
  "mandate": {
    "description": "Théft of a phone",
    "questions": [
      "Who met?"
    ],
    "received_date": "2019-02-01",
    "deadline": null,
    "investigator_name": "X",
    "suspects": [
      "Mr Sforza"
    ],
    "transmitted_items": []
  },
  "items": [
    {
      "item_id": "S1",
      "kind": "physical_device",
      "vendor": "Samsung",
      "model": "S6",
      "storage_size": 32,
      "hash": null,
      "physical_condition": "scratched",
      "acquisition_methods": [
        "logical"
      ]
    },
    {
      "item_id": "IMG",
      "kind": "forensic_image",
      "vendor": "",
      "model": "",
      "storage_size": null,
      "hash": {
        "algorithm": "SHA-256",
        "digest": "ab"
      },
      "physical_condition": null,
      "acquisition_methods": []
    }
  ],
  "device_profiles": {
    "S1": {
      "vendor": "Samsung",
      "model_code": "SM-G925F",
      "os_version": "7.0",
      "mac_address": "00:11:22:33:44:55",
      "timezone": "Europe/Paris"
    }
  },
  "locations": {
    "S1": [
      {
        "name": "a.jpg",
        "timestamp": "2019-02-14T14:33:44+01:00",
        "category": "Media",
        "latitude": 38,
        "longitude": -77.5,
        "related_location": "Healy Hall",
        "source_file": "DCIM/a.jpg",
        "size_bytes": 1024
      }
    ]
  },
  "messages": {
    "S1": [
      {
        "body": "hi",
        "timestamp": "2019-02-05T12:16:00+00:00",
        "app": "Telegram",
        "sender": {
          "identifier": "695862679",
          "display_name": "Wonder Woman"
        },
        "direction": "incoming",
        "source_files": [
          "cache4.db"
        ],
        "deleted": false
      },
      {
        "body": "joined",
        "timestamp": "2019-02-05T12:17:00+00:00",
        "app": "",
        "sender": null,
        "direction": null,
        "source_files": [],
        "deleted": null
      }
    ]
  },
  "method_steps": [
    {
      "ordinal": 1,
      "action": "Acquire",
      "purpose": "",
      "tool_name": "UFED",
      "tool_version": "7.5.0"
    }
  ]
}
"""


def test_bundle_json_text_is_pinned():
    bundle = _every_kind_bundle()
    assert bundle_to_json(bundle) == EVERY_KIND_JSON
    again = bundle_from_json(EVERY_KIND_JSON)
    assert again == bundle
    assert type(again.all_locations()[0].latitude) is int


def test_fixed_length_tuples_become_lists():
    early, late = datetime(2019, 2, 14, 14, 29, 1, tzinfo=UTC), datetime(2019, 2, 14, 14, 33, 44, tzinfo=UTC)
    cluster = LocationCluster((0, 2), (38.9, -77.0), (early, late), "Healy Hall")
    assert to_data(cluster) == {
        "member_indices": [0, 2],
        "centroid": [38.9, -77.0],
        "time_span": ["2019-02-14T14:29:01+00:00", "2019-02-14T14:33:44+00:00"],
        "label": "Healy Hall",
    }


def test_missing_optional_keys_take_their_defaults():
    item = from_data(EvidenceItem, {"item_id": "A", "kind": "physical_device"})
    assert item == EvidenceItem("A", ItemKind.PHYSICAL_DEVICE, "", "")
    bundle = bundle_from_json('{"mandate": {}}')
    assert bundle == CaseBundle(mandate=Mandate())


def test_an_enum_field_lists_its_values_for_any_value_it_cannot_take():
    for value, shown in (("sideways", "'sideways'"), (["incoming"], "['incoming']"), (None, "None")):
        with pytest.raises(ValueError) as raised:
            from_data(Direction, value)
        assert str(raised.value) == f"expected one of incoming, outgoing, system, got {shown}"


def test_a_union_of_dataclasses_decodes_the_member_its_kind_names():
    union = Union[ImageHash, Sender]
    assert from_data(union, {"kind": "sender", "identifier": "+41 79", "x": 1}) == Sender("+41 79")
    assert from_data(union, {"kind": "image_hash", "algorithm": "MD5", "digest": "ab"}) == ImageHash("MD5", "ab")
    with pytest.raises(ValueError, match=r"^Sender\.identifier: missing$"):
        from_data(union, "sender")
    for value in ("hash", {"identifier": "x"}, {"kind": ["sender"]}, 5):
        with pytest.raises(ValueError) as raised:
            from_data(union, value)
        assert str(raised.value) == f"expected one of image_hash, sender, got {value!r}"
    with pytest.raises(TypeError, match="only decodes"):
        to_data(_Signed(Sender("x")))


def test_missing_required_key_raises_value_error_naming_the_field():
    with pytest.raises(ValueError, match=r"^EvidenceItem\.item_id: missing$"):
        from_data(EvidenceItem, {"kind": "physical_device"})
    with pytest.raises(ValueError, match=r"^LocationRecord\.latitude: missing$"):
        bundle_from_json(
            '{"locations": {"S1": [{"name": "a.jpg", "timestamp": "2019-02-14T14:33:44+01:00",'
            ' "category": "", "longitude": -77.0}]}}'
        )


def _location(fields: str) -> str:
    """A bundle of one location record whose given fields override valid ones."""
    record = json.loads(
        '{"name": "a.jpg", "timestamp": "2019-02-14T14:33:44+01:00", "latitude": 38.9, "longitude": -77.0}'
    )
    record.update(json.loads("{" + fields + "}"))
    return json.dumps({"locations": {"S1": [record]}})


@pytest.mark.parametrize("doc, message", [
    ("5", "expected a JSON object, got 5"),
    ('"x"', "expected a JSON object, got 'x'"),
    ("null", "expected a JSON object, got None"),
    ('{"mandate": 5}', "CaseBundle.mandate: expected a JSON object, got 5"),
    ('{"mandate": {"deadline": 5}}', "Mandate.deadline: expected a string, got 5"),
    ('{"mandate": {"questions": "why"}}', "Mandate.questions: expected a JSON array, got 'why'"),
    ('{"items": [5]}', "CaseBundle.items: expected a JSON object, got 5"),
    ('{"locations": []}', "CaseBundle.locations: expected a JSON object, got []"),
    ('{"locations": {"S1": {}}}', "CaseBundle.locations: expected a JSON array, got {}"),
    ('{"messages": {"S1": [{"body": "b", "timestamp": null}]}}',
     "MessageRecord.timestamp: expected a string, got None"),
    (_location('"latitude": "x"'), "LocationRecord.latitude: expected a number, got 'x'"),
    (_location('"name": 7'), "LocationRecord.name: expected a string, got 7"),
    (_location('"size_bytes": 1.5'), "LocationRecord.size_bytes: expected an integer, got 1.5"),
    ('{"mandate": {"questions": ["why", 5]}}', "Mandate.questions: expected a string, got 5"),
    ('{"messages": {"S1": [{"body": "b", "timestamp": "2019-02-14T14:33:44+01:00", "deleted": "no"}]}}',
     "MessageRecord.deleted: expected a boolean, got 'no'"),
    # a lone surrogate is a Python str, but no UTF-8 document or store can hold it
    (_location('"related_location": "Healy\\ud800Hall"'),
     "LocationRecord.related_location: expected a string UTF-8 can encode, got 'Healy\\ud800Hall'"),
    ('{"mandate": {"questions": ["why", "\\udfff"]}}',
     "Mandate.questions: expected a string UTF-8 can encode, got '\\udfff'"),
])
def test_wrong_json_type_raises_value_error_naming_the_field(doc, message):
    with pytest.raises(ValueError) as raised:
        bundle_from_json(doc)
    assert str(raised.value) == message


def test_float_field_takes_an_integer_and_keeps_it():
    doc = _location('"latitude": 38, "longitude": -77')
    (record,) = bundle_from_json(doc).locations["S1"]
    assert (record.latitude, record.longitude, record.category) == (38, -77, "")
    assert type(record.latitude) is int
    # so a bundle written with integer coordinates keeps its bytes
    assert '"latitude": 38,' in bundle_to_json(bundle_from_json(doc))


@pytest.mark.parametrize("field, what", [
    ("latitude", "a number"), ("longitude", "a number"), ("size_bytes", "an integer"),
])
def test_a_boolean_is_no_number(field, what):
    with pytest.raises(ValueError) as raised:
        bundle_from_json(_location(f'"{field}": true'))
    assert str(raised.value) == f"LocationRecord.{field}: expected {what}, got True"


def test_hand_written_bundle_may_omit_what_the_old_converters_filled_in():
    bundle = bundle_from_json(
        '{"device_profiles": {"S1": {"vendor": "Samsung"}},'
        ' "locations": {"S1": [{"name": "a.jpg", "timestamp": "2019-02-14T14:33:44+01:00",'
        ' "latitude": 38, "longitude": -77.0}]}}'
    )
    assert bundle.mandate == Mandate()
    assert bundle.device_profiles["S1"] == DeviceProfile(vendor="Samsung")
    (rec,) = bundle.locations["S1"]
    assert (rec.category, rec.latitude, rec.longitude) == ("", 38, -77.0)


# --- offsets ----------------------------------------------------------------

def _at(tz: timezone) -> datetime:
    return datetime(2019, 2, 5, 12, 16, tzinfo=tz)


@pytest.mark.parametrize(
    "minutes,text",
    [(0, "UTC+0"), (-300, "UTC-5"), (330, "UTC+5:30"), (120, "UTC+2")],
)
def test_format_offset(minutes, text):
    assert format_offset(_at(timezone(timedelta(minutes=minutes)))) == text


def test_format_offset_rejects_naive():
    with pytest.raises(ValueError):
        format_offset(datetime(2019, 2, 5, 12, 16))


@pytest.mark.parametrize("text", ["UTC+0", "UTC-5", "UTC+5:30", "UTC+14"])
def test_parse_offset_round_trip(text):
    assert format_offset(_at(parse_offset(text))) == text


@pytest.mark.parametrize("text", ["UTC+24", "UTC+30", "UTC-5:60", "UTC+5:99", "UTC5", "GMT+1"])
def test_parse_offset_rejects_offsets_that_do_not_exist(text):
    with pytest.raises(ValueError):
        parse_offset(text)


@given(st.integers(min_value=-14 * 60, max_value=14 * 60))
def test_offset_text_round_trip(minutes):
    tz = timezone(timedelta(minutes=minutes))
    assert parse_offset(format_offset(_at(tz))) == tz
