"""Checks of casedraft's outputs made apart from the program.

Nothing here imports casedraft: bundles, stores, summaries and reports are
read as the JSON and Markdown files the CLI wrote, and compared with the
truth the case papers were generated from and with properties fixed in
advance (the 4/4/4/12/12 matrix, the six report headings, ...).

A check that fails raises ``CheckError`` and aborts the workload.  A draft
whose grounding verdict contradicts what its backend injected is not an
abort: ``check_records`` counts it as a failed operation.
"""

from __future__ import annotations

import json
from collections import Counter
from datetime import datetime

from casegen import Case

SECTION_SPLIT = {
    ("introduction", "general"): 4,
    ("items_received", "general"): 4,
    ("methodology", "general"): 4,
    ("results", "conversations"): 12,
    ("results", "locations"): 12,
}
# rows of the summary: (section, input format) -> prompts per backend and run
SUMMARY_GROUPS = {
    ("introduction", "mandate_text"): 4,
    ("items_received", "mandate_text"): 4,
    ("methodology", "lab_log_table"): 4,
    ("results", "tool_report_excerpt"): 8,
    ("results", "lab_log_table"): 8,
    ("results", "reduced_csv"): 8,
}
HEADINGS = ["Introduction", "Items Received", "Methodology", "Results", "Discussion", "Conclusion"]
DRAFTED = ("introduction", "items_received", "methodology", "results")


class CheckError(Exception):
    """An output of the program is wrong; the workload stops."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _fact_key(prompt: dict) -> str:
    return prompt["topic"] if prompt["section"] == "results" else prompt["section"]


def check_bundle(bundle_text: str, case: Case) -> None:
    """The ingested bundle holds exactly the generated records."""
    doc = json.loads(bundle_text)
    for item, truth in case.locations.items():
        got = doc["locations"].get(item, [])
        _require(len(got) == len(truth), f"bundle: {item} has {len(got)} locations, expected {len(truth)}")
        for rec, (name, lat, lon, ts) in zip(got, truth):
            _require(rec["name"] == name, f"bundle: location name {rec['name']!r} != {name!r}")
            _require(abs(rec["latitude"] - lat) <= 1e-6 and abs(rec["longitude"] - lon) <= 1e-6,
                     f"bundle: {name} at ({rec['latitude']}, {rec['longitude']}), expected ({lat}, {lon})")
            _require(datetime.fromisoformat(rec["timestamp"]) == ts,
                     f"bundle: {name} at {rec['timestamp']}, expected {ts.isoformat()}")
    for item, truth in case.messages.items():
        got = doc["messages"].get(item, [])
        _require(len(got) == len(truth), f"bundle: {item} has {len(got)} messages, expected {len(truth)}")
        for rec, (body, ts, ident, display) in zip(got, truth):
            _require(rec["body"] == body, f"bundle: message body {rec['body']!r} != {body!r}")
            _require(datetime.fromisoformat(rec["timestamp"]) == ts,
                     f"bundle: message at {rec['timestamp']}, expected {ts.isoformat()}")
            sender = rec["sender"] or {}
            _require((sender.get("identifier"), sender.get("display_name")) == (ident, display),
                     f"bundle: message sender {sender} != {(ident, display)}")
    _require(len(doc["locations"]) == len(case.locations) and len(doc["messages"]) == len(case.messages),
             "bundle: unexpected items with records")


def expected_verdict(expectation: tuple, prompt: dict, grounding: dict, case: Case) -> bool:
    """Whether one draft's grounding agrees with what its backend did."""
    claims = [c for c in grounding["claims"] if c["status"] == "ungrounded"]
    kind = expectation[0]
    if kind == "faithful":
        return grounding["hallucination_count"] == 0 and grounding["completeness"] == 1.0
    if kind == "drop":
        n = case.required_facts[_fact_key(prompt)]
        want = max(0, n - expectation[1]) / n
        return grounding["hallucination_count"] == 0 and abs(grounding["completeness"] - want) <= 1e-12
    # inject: exactly one ungrounded claim, of the injected kind
    return (grounding["hallucination_count"] == 1 and len(claims) == 1
            and claims[0]["kind"] == expectation[1])


def check_records(records: list[dict], expectations: dict[str, tuple], case: Case,
                  earlier_run_ids: set[str]) -> tuple[int, int, Counter]:
    """Checks one experiment's records; returns (attempted, failed, failures
    per backend)."""
    per_backend = Counter(r["backend"] for r in records)
    _require(set(per_backend) == set(expectations) and all(v == 36 for v in per_backend.values()),
             f"store: records per backend {dict(per_backend)}, expected 36 for each of {sorted(expectations)}")
    run_ids = {r["run_id"] for r in records}
    _require(len(run_ids) == 1, f"store: one experiment wrote run ids {sorted(run_ids)}")
    _require(not run_ids & earlier_run_ids, f"store: run id {run_ids} was already in the store")

    failed: Counter = Counter()
    for backend in expectations:
        prompts = [r["prompt"] for r in records if r["backend"] == backend]
        split = Counter((p["section"], p["topic"]) for p in prompts)
        _require(split == Counter(SECTION_SPLIT), f"matrix: {backend} split {dict(split)}")
        _require(len({p["prompt_id"] for p in prompts}) == 36, f"matrix: {backend} has repeated prompt ids")
    for r in records:
        if r["record_kind"] != "result":
            failed[r["backend"]] += 1
            continue
        prompt, grounding = r["prompt"], r["grounding"]
        key = _fact_key(prompt)
        n_facts = len(grounding["required_facts"])
        _require(n_facts == case.required_facts[key],
                 f"grounding: {key} prompt requires {n_facts} facts, expected {case.required_facts[key]}")
        if key == "locations":
            _require(n_facts == case.cluster_count, "grounding: location facts differ from the cluster count")
        if not expected_verdict(expectations[r["backend"]], prompt, grounding, case):
            failed[r["backend"]] += 1
    return len(records), sum(failed.values()), failed


def check_summary(summary_text: str, runs: dict[str, int]) -> None:
    """Every (backend, section, format) row counts its prompts times the
    backend's runs in the store, with no errors."""
    rows = json.loads(summary_text)
    got = {(r["backend"], r["section"], r["input_format"]): (r["count"], r["error_count"]) for r in rows}
    want = {(b, s, f): (n * k, 0) for b, k in runs.items() for (s, f), n in SUMMARY_GROUPS.items()}
    _require(got == want, f"summary: rows {got} differ from {want}")


def check_report(report: str, chosen: dict[str, dict]) -> None:
    """Disclaimer first, six headings in order, the examiner's sections
    reserved, and each chosen draft present with its provenance."""
    lines = report.splitlines()
    _require(lines[0].startswith("> DRAFT - produced with machine assistance"), "report: disclaimer is not first")
    headings = [line[2:] for line in lines if line.startswith("# ")]
    _require(headings == HEADINGS, f"report: headings {headings}")
    _require("*Interpretation is reserved for the examiner.*" in report, "report: Discussion is not reserved")
    _require("*Conclusions are reserved for the examiner.*" in report, "report: Conclusion is not reserved")
    for section, draft in chosen.items():
        tag = f"<!-- backend={draft['backend_label']} prompt={draft['prompt_id']} "
        at = report.find(tag)
        _require(at >= 0, f"report: no provenance for the {section} draft")
        _require(report[at:report.find("-->", at)].rstrip().endswith("hallucinations=0"),
                 f"report: the {section} draft is not clean")
        _require(draft["text"].rstrip("\n") in report, f"report: the {section} draft text is missing")
