"""Case papers for the benchmark, with the truth they were made from.

Two sources of papers:

* ``golden_case`` points at the golden excerpts under ``tests/data`` and
  states, by hand, what a correct ingest of them must yield.
* ``scaled_case`` writes synthetic papers from a seed and a record count.
  Locations mix a few dense sites (many fixes within a few metres, like a
  home or a workplace) with a sparse trail of single fixes spaced farther
  apart than the clustering radius, so the number of spatial clusters is
  known exactly.  Every message body carries a token unique to it.  The
  records are split over three items and written in every layout the
  ``ingest`` command reads: tool-report excerpts with English and French
  labels, lab-log tables and the reduced CSV export.

The mandate, items and method steps of the scaled case do not depend on
the seed; only the records do.

Run ``python3 bench/casegen.py --seed 1 --records 250 --out DIR`` to write
one scaled case and print its truth summary.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

EARTH_RADIUS_M = 6371000.0

# Injected by the fault backends; the golden and scaled papers never come
# near these coordinates or mention these people.
FOREIGN_NAME = "Mr Moriarty"
NEAR_MISS_NAME = "Mr Sforz"  # a suspect's name, last letter dropped


@dataclass
class Case:
    """Source files for one ``casedraft ingest`` call plus the truth."""

    ingest_args: list[str]
    # item id -> [(name, lat, lon, instant)]
    locations: dict[str, list[tuple[str, float, float, datetime]]]
    # item id -> [(body, instant, sender id or None, display name or None)]
    messages: dict[str, list[tuple[str, datetime, str | None, str | None]]]
    cluster_count: int
    # required facts per (section, topic): introduction, items_received,
    # methodology, conversations, locations
    required_facts: dict[str, int]
    source_lines: int = 0

    @property
    def record_count(self) -> int:
        return sum(map(len, self.locations.values())) + sum(map(len, self.messages.values()))


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = p2 - p1, math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


# ---------------------------------------------------------------------------
# golden papers

GOLDEN_ITEMS = [
    {
        "item_id": "S1", "kind": "physical_device", "vendor": "Samsung",
        "model": "Galaxy S6 Edge", "storage_size": 32000000000,
        "acquisition_methods": ["logical", "physical"],
    },
    {
        "item_id": "IP6", "kind": "physical_device", "vendor": "Apple",
        "model": "iPhone 6", "acquisition_methods": ["logical", "file system"],
    },
]


def golden_case(repo: Path, work: Path) -> Case:
    data = repo / "tests" / "data"
    items = work / "golden_items.json"
    items.write_text(json.dumps(GOLDEN_ITEMS), encoding="utf-8")
    sources = {
        "mandate": data / "full_mandate.txt",
        "locations": data / "lablog_locations.txt",
        "messages": data / "lablog_messages.txt",
        "device": data / "device_lablog.txt",
        "steps": data / "method_steps.txt",
    }
    args = [
        "--mandate", str(sources["mandate"]),
        "--lablog-locations", f"S1={sources['locations']}",
        "--lablog-messages", f"IP6={sources['messages']}",
        "--device-profile", f"S1={sources['device']}",
        "--method-steps", str(sources["steps"]),
        "--items", str(items),
        "--default-offset", "UTC-5",
    ]
    minus5 = timezone(timedelta(hours=-5))
    locations = {
        "S1": [
            ("20190214_143344.jpg", 38.9075, -77.0727777777778, datetime(2019, 2, 14, 14, 33, 44, tzinfo=minus5)),
            ("20190214_143342.jpg", 38.9075, -77.0727777777778, datetime(2019, 2, 14, 14, 33, 42, tzinfo=minus5)),
            ("20190214_142901.jpg", 38.9069444444444, -77.0725, datetime(2019, 2, 14, 14, 29, 1, tzinfo=minus5)),
        ]
    }
    messages = {
        "IP6": [
            ("Wonder Woman created the group Secret",
             datetime(2019, 2, 5, 7, 16, 4, tzinfo=minus5), None, None),
            ("Han, Obi Wan, This mission will be tricky and we need the best!",
             datetime(2019, 2, 5, 7, 16, 54, tzinfo=minus5), "695862679", "Wonder Woman"),
            ("A package is waiting for you at the Krystal on E colonial Drive near Union Park.",
             datetime(2019, 2, 5, 7, 17, 49, tzinfo=minus5), "695862679", "Wonder Woman"),
        ]
    }
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources.values())
    return Case(
        ingest_args=args,
        locations=locations,
        messages=messages,
        # the three fixes lie within 70 m of each other
        cluster_count=1,
        # 5 questions + 2 suspects + investigator + 2 transmitted items;
        # S1 has make, MAC and acquisition, IP6 make and acquisition;
        # 5 step actions + 3 named tools
        required_facts={
            "introduction": 10, "items_received": 5, "methodology": 8,
            "conversations": 3, "locations": 1,
        },
        source_lines=lines,
    )


# ---------------------------------------------------------------------------
# scaled papers

SCALED_MANDATE = """\
Date: 07.03.2019
Description: Following a cross-border smuggling inquiry, two individuals, Mr Sforza and Mr Pressive, were detained in Lausanne on suspicion of trafficking stolen manuscripts.
Items: 1. One Samsung Galaxy S9 smartphone
2. One Google Pixel 3 smartphone
3. One Huawei P20 smartphone
Mandate: Using the information provided, we ask you to answer the following questions:
i. Where was Mr Sforza in January and February 2019?
ii. Where was Mr Pressive in January and February 2019?
iii. Did Mr Sforza and Mr Pressive meet during this period?
iv. Which contacts exchanged messages with Mr Sforza?
v. Are Mr Sforza and/or Mr Pressive implicated in the trafficking?
We request that you answer these questions before the 29th of March 2019.
Note: The person mandated is the investigator Lena Hartmann.
"""

SCALED_STEPS = """\
Step\tAction\tPurpose\tTool\tVersion
1\tReceived the three devices and the mandate\tEstablish chain of custody\t-\t-
2\tPerformed logical and physical extractions of the Samsung Galaxy S9\tAcquire device storage\tCellebrite UFED\t-
3\tPerformed a logical extraction of the Google Pixel 3\tAcquire device storage\tCellebrite UFED\t-
4\tPerformed a file system extraction of the Huawei P20\tAcquire device storage\tOxygen Forensic Detective\t-
5\tProcessed the extractions into tool reports\tIndex artifacts for review\tCellebrite UFED Physical Analyzer\t7.3.0.75
6\tExported the chat tables to reduced CSV files\tPrepare chats for review\t-\t-
"""

SCALED_ITEMS = [
    {"item_id": "PH1", "kind": "physical_device", "vendor": "Samsung", "model": "Galaxy S9",
     "storage_size": 64000000000, "acquisition_methods": ["logical", "physical"]},
    {"item_id": "PH2", "kind": "physical_device", "vendor": "Google", "model": "Pixel 3",
     "storage_size": 128000000000, "acquisition_methods": ["logical"]},
    {"item_id": "PH3", "kind": "physical_device", "vendor": "Huawei", "model": "P20",
     "storage_size": 128000000000, "acquisition_methods": ["file system"]},
]

SCALED_PROFILES = {
    "PH1": ("Samsung", "SM-G960F", "9.0.0", "3C:28:6D:11:A4:0B", "Europe/Zurich"),
    "PH2": ("Google", "G013A", "9.0.1", "F4:F5:E8:20:7C:91", "Europe/Zurich"),
    "PH3": ("Huawei", "EML-L29", "8.1.0", "08:7A:4C:5E:19:D2", "Europe/Paris"),
}

# required facts of the fixed scaled papers: 5 questions + 2 suspects +
# investigator + 3 transmitted items; make, MAC and acquisition for each of
# 3 items; 6 step actions + 4 named tools
SCALED_FIXED_FACTS = {"introduction": 11, "items_received": 9, "methodology": 10}

SITES = [
    ("Kestrel Depot, 14 Harbour Road, Portvale", 46.5191, 6.6323),
    ("Osprey Flats, 3 Quarry Lane, Montbrecht", 46.4603, 6.8419),
    ("Heron Works, 88 Mill Street, Eschenau", 46.5562, 6.4101),
    ("Plover Court, 7 Orchard Row, Valdorne", 46.3810, 6.2375),
]

CONTACTS = [
    ("695862679", "Wonder Woman"), ("612004518", "Iron Fist"), ("633912874", "Silver Hawk"),
    ("647220913", "Night Owl"), ("658113402", "Blue Marlin"), ("671590236", "Red Fox"),
    ("684377105", "Green Lantern"), ("699021847", "Black Swan"), ("620558731", None),
    ("631447062", None),
]

WORDS = (
    "package meeting tonight courier bridge harbour parcel tomorrow crate north gate "
    "buyer delivery signal boat quay van warehouse morning evening late early route "
    "papers cargo check later waiting corner lights plan change cash drop keys"
).split()

_B36 = "0123456789abcdefghijklmnopqrstuvwxyz"


def _offset_text(tz: timezone) -> str:
    hours = int(tz.utcoffset(None).total_seconds() // 3600)
    return f"UTC{'-' if hours < 0 else '+'}{abs(hours)}"


def _jitter(rng: random.Random, lat: float, lon: float, max_m: float) -> tuple[float, float]:
    r = max_m * math.sqrt(rng.random())
    theta = rng.uniform(0, 2 * math.pi)
    dlat = r * math.cos(theta) / 111320.0
    dlon = r * math.sin(theta) / (111320.0 * math.cos(math.radians(lat)))
    return round(lat + dlat, 6), round(lon + dlon, 6)


def _trail(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """Single fixes more than 1 km from every other fix and every site, far
    beyond casedraft's default 200 m clustering radius."""
    points: list[tuple[float, float]] = []
    anchors = [(lat, lon) for _, lat, lon in SITES]
    lat, lon = 46.45, 6.55
    while len(points) < count:
        lat2 = min(46.95, max(45.95, lat + rng.uniform(-0.03, 0.03)))
        lon2 = min(7.45, max(5.95, lon + rng.uniform(-0.04, 0.04)))
        cand = (round(lat2, 6), round(lon2, 6))
        if all(haversine_m(*cand, *p) > 1000.0 for p in points + anchors):
            points.append(cand)
            lat, lon = cand
        else:
            lat, lon = 46.45 + rng.uniform(-0.45, 0.45), 6.7 + rng.uniform(-0.7, 0.7)
    return points


def _body(rng: random.Random, prefix: str, serial: int) -> str:
    """Eight words from a small vocabulary, then a token: fixed prefix, five
    random characters and the serial in base 36, unique per body."""
    words = [rng.choice(WORDS) for _ in range(8)]
    words[0] = words[0].capitalize()
    digits = ""
    while True:
        serial, d = divmod(serial, 36)
        digits = _B36[d] + digits
        if not serial:
            break
    return " ".join(words) + f" {prefix}-" + "".join(rng.choice(_B36) for _ in range(5)) + digits


def _sources(item: str, serial: int) -> tuple[str, ...]:
    base = f"USERDATA (ExtX)/Root/data/org.telegram.messenger/files/cache{item[-1]}.db"
    return (f"{base} : 0x{0x8D000 + serial * 37:X} (Table: messages, Size: 720896 bytes)",)


def scaled_case(seed: int, records: int, out: Path) -> Case:
    """Write seeded papers with ``records`` records (two fifths locations,
    the rest messages) under ``out`` and return the truth they encode."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    n_locations = max(8, records * 2 // 5)
    n_messages = max(6, records - n_locations)

    # 70 % of the fixes fall on the four dense sites, the rest on the trail
    n_dense = max(len(SITES), round(n_locations * 0.7))
    trail = _trail(rng, n_locations - n_dense)
    fixes: list[tuple[float, float, str | None]] = []
    for k in range(n_dense):
        site_name, lat, lon = SITES[k % len(SITES)]
        fixes.append((*_jitter(rng, lat, lon, 15.0), site_name))
    fixes += [(lat, lon, None) for lat, lon in trail]
    rng.shuffle(fixes)

    # split over the three items: PH1 tool report (English), PH2 lab log
    # (comma decimals, related locations), PH3 tool report (French)
    split = [n_locations * 2 // 5, n_locations * 7 // 10]
    loc_items = {"PH1": fixes[: split[0]], "PH2": fixes[split[0]: split[1]], "PH3": fixes[split[1]:]}
    offsets = {"PH1": timezone.utc, "PH2": timezone(timedelta(hours=1)), "PH3": timezone(timedelta(hours=1))}

    truth_locs: dict[str, list] = {}
    for item, item_fixes in loc_items.items():
        t = datetime(2019, 1, 3, 7, 0, 0, tzinfo=timezone.utc)
        rows = []
        for i, (lat, lon, site) in enumerate(item_fixes):
            t += timedelta(minutes=rng.randint(3, 150), seconds=rng.randint(1, 59))
            local = t.astimezone(offsets[item])
            name = f"IMG_{local:%Y%m%d_%H%M%S}_{item}{i:04d}.jpg"
            rows.append((name, lat, lon, local, site, rng.randint(1_000_000, 6_000_000)))
        truth_locs[item] = rows

    lines: list[str] = ["# Source Position Info Confidence Category Deleted"]
    for n, (name, lat, lon, ts, _site, size) in enumerate(truth_locs["PH1"], start=1):
        lines += [
            f"{n} ({lat:.6f}, {lon:.6f}) Name: {name}",
            f"Hour: {ts:%m/%d/%Y %H:%M:%S}",
            "Source File: USERDATA",
            f"(ExtX) /Root/media/0/DCIM/Camera/{name} :",
            f"0x364 (Size : {size} bytes)",
            "Media Locations",
        ]
    (out / "ph1_locations.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["Name\tTime\tCategory\tLatitude\tLongitude\tRelated Location"]
    for name, lat, lon, ts, site, _size in truth_locs["PH2"]:
        cells = [name, f"{ts:%d.%m.%Y %H:%M:%S}({_offset_text(offsets['PH2'])})", "Media Locations",
                 f"{lat:.6f}".replace(".", ","), f"{lon:.6f}".replace(".", ",")]
        if site:
            cells.append(site)
        lines.append("\t".join(cells))
    (out / "ph2_locations.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["# Source Position Info Confidence Category Deleted"]
    for n, (name, lat, lon, ts, _site, size) in enumerate(truth_locs["PH3"], start=1):
        lines += [
            f"{n} ({lat:.6f}, {lon:.6f})".replace(".", ",") + f" Name: {name}",
            f"Heure: {ts:%m/%d/%Y %H:%M:%S}({_offset_text(offsets['PH3'])})",
            f"Fichier source: USERDATA (ExtX) /Root/media/0/DCIM/Camera/{name} :",
            f"0x364 (Taille : {size} octets)",
            "Media Locations",
        ]
    (out / "ph3_locations.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # messages: PH1 lab log, PH2 tool report (French), PH3 reduced CSV
    msg_split = [n_messages // 3, n_messages * 2 // 3]
    counts = {"PH1": msg_split[0], "PH2": msg_split[1] - msg_split[0], "PH3": n_messages - msg_split[1]}
    truth_msgs: dict[str, list] = {}
    serial = 0
    for item, count in counts.items():
        t = datetime(2019, 1, 4, 8, 0, 0, tzinfo=timezone.utc)
        rows = []
        for _ in range(count):
            t += timedelta(minutes=rng.randint(1, 200), seconds=rng.randint(0, 59))
            local = t.astimezone(offsets[item])
            if item == "PH2" and local.second == 0:
                local += timedelta(seconds=1)
            # the seed moves words, senders and times, not the amount of work:
            # every 20th message is a system event, every 7th outside the lab
            # log runs over two lines
            contact = rng.choice(CONTACTS) if serial % 20 else (None, None)
            body = _body(rng, "ref", serial)
            if item != "PH1" and serial % 7 == 3:
                body += "\n" + _body(rng, "cont", serial)
            rows.append((body, local, contact[0], contact[1], _sources(item, serial), rng.random() < 0.5))
            serial += 1
        truth_msgs[item] = rows

    lines = ["From\tTimestamp: Time\tDeleted\tInstant Message\tStatus", "Body", "Source file information", ""]
    for body, ts, ident, display, sources, _in in truth_msgs["PH1"]:
        sender = "-" if ident is None else (f"{ident} {display}" if display else ident)
        lines.append(f"{sender}\t{ts:%d.%m.%Y %H:%M:%S}({_offset_text(ts.tzinfo)})\t-\t-\t-")
        lines.append(body)
        lines.append(" & ".join(sources))
        lines.append("")
    (out / "ph1_messages.txt").write_text("\n".join(lines), encoding="utf-8")

    lines = []
    for body, ts, ident, display, sources, incoming in truth_msgs["PH2"]:
        head = f"{ts:%d.%m.%Y %H:%M:%S}({_offset_text(ts.tzinfo)})Direction:{'Entrant' if incoming else 'Sortant'}"
        if ident:
            head += f", {ident}" + (f" ({display})" if display else "")
        lines.append(head)
        lines += body.split("\n")
        lines += [f"Fichier source: {s}".replace("Size:", "Taille :").replace("bytes", "octets") for s in sources]
        lines.append("")
    (out / "ph2_messages.txt").write_text("\n".join(lines), encoding="utf-8")

    rows = [["From", "Body", "Timestamp: Time"]]
    for body, ts, ident, display, _sources_, _in in truth_msgs["PH3"]:
        sender = "" if ident is None else (f"{ident} {display}" if display else ident)
        first, *rest = body.split("\n")
        rows.append([sender, first, f"{ts:%d.%m.%Y %H:%M:%S}({_offset_text(ts.tzinfo)})"])
        rows += [["", extra, ""] for extra in rest]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    text = "\n".join(" ; ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip() for r in rows)
    (out / "ph3_messages.txt").write_text(text + "\n", encoding="utf-8")

    (out / "mandate.txt").write_text(SCALED_MANDATE, encoding="utf-8")
    (out / "steps.txt").write_text(SCALED_STEPS, encoding="utf-8")
    (out / "items.json").write_text(json.dumps(SCALED_ITEMS), encoding="utf-8")
    for item, (vendor, model, os_version, mac, tz) in SCALED_PROFILES.items():
        (out / f"{item.lower()}_device.txt").write_text(
            f"Detected Phone Vendor   {vendor}\nDetected Phone Model    {model}\n"
            f"OS Version              {os_version}\nMAC address             {mac}\n"
            f"Time Zone               {tz}\n",
            encoding="utf-8",
        )

    args = [
        "--mandate", str(out / "mandate.txt"),
        "--tool-locations", f"PH1={out / 'ph1_locations.txt'}",
        "--lablog-locations", f"PH2={out / 'ph2_locations.txt'}",
        "--tool-locations", f"PH3={out / 'ph3_locations.txt'}",
        "--lablog-messages", f"PH1={out / 'ph1_messages.txt'}",
        "--tool-messages", f"PH2={out / 'ph2_messages.txt'}",
        "--csv-messages", f"PH3={out / 'ph3_messages.txt'}",
        "--method-steps", str(out / "steps.txt"),
        "--items", str(out / "items.json"),
        "--default-offset", "UTC+0",
    ]
    for item in SCALED_PROFILES:
        args += ["--device-profile", f"{item}={out / f'{item.lower()}_device.txt'}"]

    sites_used = {site for *_r, site, _s in (r for rows_ in truth_locs.values() for r in rows_) if site}
    source_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in out.iterdir() if p.suffix == ".txt"
    )
    return Case(
        ingest_args=args,
        locations={k: [(r[0], r[1], r[2], r[3]) for r in v] for k, v in truth_locs.items()},
        messages={k: [(r[0], r[1], r[2], r[3]) for r in v] for k, v in truth_msgs.items()},
        cluster_count=len(sites_used) + len(trail),
        required_facts={**SCALED_FIXED_FACTS, "conversations": n_messages, "locations": len(sites_used) + len(trail)},
        source_lines=source_lines,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--records", type=int, default=250)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    case = scaled_case(args.seed, args.records, Path(args.out))
    print(json.dumps({
        "records": case.record_count,
        "clusters": case.cluster_count,
        "required_facts": case.required_facts,
        "source_lines": case.source_lines,
    }))


if __name__ == "__main__":
    main()
