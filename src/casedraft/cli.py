"""Command-line interface.

Subcommands mirror the pipeline stages: ingest sources into a bundle,
validate it, run record transforms, enumerate the prompt matrix, generate
and score single drafts, assemble a report, run the full experiment, and
summarize a results store.  Parse diagnostics go to stderr as
file:line: severity: message; recoverable problems never fail the run.
Rejected input or arguments print one "error: <message>" line and exit 2;
`main` alone decides which exceptions mean rejected input.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from datetime import timedelta
from functools import partial
from pathlib import Path

from . import gateway, grounding, ingest, pipeline, prompting, transform
from .model import (
    CaseBundle,
    EvidenceItem,
    ItemKind,
    Mandate,
    ReportSectionKind,
    bundle_from_json,
    bundle_to_json,
    from_data,
    parse_offset,
    to_data,
    validate_bundle,
)

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit_diags(diags, source: str) -> None:
    for d in diags:
        print(d.render(source), file=sys.stderr)


def _file_pairs(values, name: str) -> list[tuple[str, str]]:
    """A flag's values, each split at its first "=" into name and FILE."""
    pairs = []
    for value in values or ():
        key, sep, path = value.partition("=")
        if not sep:
            raise ValueError(f"expected {name}=FILE, got {value!r}")
        pairs.append((key, path))
    return pairs


def _load_bundle(path: str) -> CaseBundle:
    return bundle_from_json(_read(path))


def _save_text(text: str, output: str | None) -> None:
    """text to the file output, or to stdout.  The file is rewritten in
    place, cut to the new length and synced to disk.  It is not truncated to
    zero bytes first: on ext4, cutting blocks that are already on disk
    stalls for tens of milliseconds, and a truncating rewrite cuts every
    block, while one in place cuts only those past a shorter text's end.  A
    crash before the sync can leave old, new or mixed bytes."""
    if not output:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")  # before opening: a text that cannot encode leaves the file as it was
    with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # /dev/null and a FIFO have no length to cut
            fh.truncate()  # flushes the buffer first
            os.fdatasync(fh.fileno())


# ---------------------------------------------------------------------------
# ingest

def _cmd_ingest(args) -> int:
    offset = parse_offset(args.default_offset)

    mandate = Mandate()
    if args.mandate:
        mandate, diags = ingest.parse_mandate(_read(args.mandate))
        _emit_diags(diags, args.mandate)

    locations: dict[str, list] = {}
    messages: dict[str, list] = {}
    profiles = {}
    # the message heads of tool reports and lab logs always carry an offset
    parser_flags = [
        (args.tool_locations, partial(ingest.parse_tool_report_locations, default_offset=offset),
         locations),
        (args.lablog_locations, partial(ingest.parse_lablog_locations, default_offset=offset),
         locations),
        (args.tool_messages, ingest.parse_tool_report_messages, messages),
        (args.lablog_messages, ingest.parse_lablog_messages, messages),
        (args.csv_messages, partial(ingest.parse_csv_messages, default_offset=offset), messages),
    ]
    for values, parser, sink in parser_flags:
        for item_id, path in _file_pairs(values, "ITEM"):
            records, diags = parser(_read(path))
            _emit_diags(diags, path)
            sink.setdefault(item_id, []).extend(records)
    for item_id, path in _file_pairs(args.device_profile, "ITEM"):
        profile, diags = ingest.parse_device_profile(_read(path))
        _emit_diags(diags, path)
        profiles[item_id] = profile

    steps = ()
    if args.method_steps:
        parsed, diags = ingest.parse_method_steps(_read(args.method_steps))
        _emit_diags(diags, args.method_steps)
        steps = tuple(parsed)

    items: dict[str, EvidenceItem] = {}
    if args.items:
        try:
            for item in from_data(tuple[EvidenceItem, ...], json.loads(_read(args.items))):
                items[item.item_id] = item
        except (OSError, ValueError) as exc:
            raise ValueError(f"items file: {exc}") from None
    for item_id in list(locations) + list(messages) + list(profiles):
        if item_id not in items:
            profile = profiles.get(item_id)
            items[item_id] = EvidenceItem(
                item_id=item_id,
                kind=ItemKind.PHYSICAL_DEVICE,
                vendor=profile.vendor if profile else "",
                model=profile.model_code if profile else "",
            )

    bundle = CaseBundle(
        mandate=mandate,
        items=tuple(items.values()),
        device_profiles=profiles,
        locations={k: tuple(v) for k, v in locations.items()},
        messages={k: tuple(v) for k, v in messages.items()},
        method_steps=steps,
    )
    _save_text(bundle_to_json(bundle), args.output)
    return 0


def _cmd_validate(args) -> int:
    issues = validate_bundle(_load_bundle(args.bundle))
    for issue in issues:
        print(str(issue), file=sys.stderr)
    return 1 if issues else 0


# ---------------------------------------------------------------------------
# transforms

def _records_for(bundle: CaseBundle, item: str | None, kind: str):
    source = bundle.locations if kind == "locations" else bundle.messages
    if item:
        return list(source.get(item, ()))
    return [rec for recs in source.values() for rec in recs]


def _cmd_transform(args) -> int:
    bundle = _load_bundle(args.bundle)
    op = args.op
    if op == "spatial":
        records = _records_for(bundle, args.item, "locations")
        clusters = transform.group_locations_spatial(records, args.radius)
        out = [to_data(c) for c in clusters]
    elif op == "chrono":
        records = _records_for(bundle, args.item, "locations")
        clusters = transform.group_locations_chronological(
            records, timedelta(minutes=args.max_gap_minutes)
        )
        out = [to_data(c) for c in clusters]
    elif op == "days":
        records = _records_for(bundle, args.item, "locations")
        buckets = transform.bucket_by_day(records, parse_offset(args.offset))
        out = {day.isoformat(): [r.name for r in recs] for day, recs in buckets.items()}
    elif op == "colocate":
        if not args.item or not args.item_b:
            raise ValueError("colocate needs --item and --item-b")
        a = list(bundle.locations.get(args.item, ()))
        b = list(bundle.locations.get(args.item_b, ()))
        candidates = transform.detect_colocations(
            a, b, args.radius, timedelta(minutes=args.window_minutes)
        )
        out = [to_data(c) for c in candidates]
    elif op == "csv":
        records = _records_for(bundle, args.item, "messages")
        _save_text(transform.reduce_to_csv(records), args.output)
        return 0
    else:  # places
        if not args.gazetteer:
            raise ValueError("places needs --gazetteer")
        gazetteer = transform.load_gazetteer(_read(args.gazetteer))
        records = _records_for(bundle, args.item, "locations")
        out = [{"name": r.name, "place": transform.resolve_place(r.latitude, r.longitude, gazetteer)}
               for r in records]

    _save_text(json.dumps(out, indent=2, ensure_ascii=False) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# prompts and generation

def _cmd_matrix(args) -> int:
    bundle = _load_bundle(args.bundle)
    prompts = prompting.build_matrix(bundle, french_labels=args.french_labels)
    _save_text(prompting.matrix_to_json(prompts), args.output)
    return 0


def _load_profiles(path: str) -> dict[str, gateway.BackendConfig]:
    doc = json.loads(_read(path))
    profiles = doc.get("profiles", {}) if isinstance(doc, dict) else None
    if not isinstance(profiles, dict):
        raise ValueError(f'{path}: expected {{"profiles": {{NAME: PROFILE, ...}}}}')
    return {
        name: gateway.backend_config_from_dict(name, entry)
        for name, entry in profiles.items()
    }


def _cmd_generate(args) -> int:
    bundle = _load_bundle(args.bundle)
    profiles = _load_profiles(args.config)
    config = profiles.get(args.backend)
    if config is None:
        raise ValueError(f"no backend profile named {args.backend!r}")

    prompts = prompting.build_matrix(bundle, french_labels=args.french_labels)
    if args.prompt_id:
        chosen = next((p for p in prompts if p.prompt_id == args.prompt_id), None)
        if chosen is None:
            raise ValueError(f"prompt {args.prompt_id!r} is not in the matrix")
    elif 0 <= args.index < len(prompts):
        chosen = prompts[args.index]
    else:
        raise ValueError(f"--index out of range 0..{len(prompts) - 1}")

    draft = gateway.generate(config, chosen)
    _save_text(json.dumps(to_data(draft), indent=2, ensure_ascii=False) + "\n", args.output)
    return 0


def _load_draft(path: str) -> gateway.GeneratedDraft:
    return from_data(gateway.GeneratedDraft, json.loads(_read(path)))


def _cmd_score(args) -> int:
    bundle = _load_bundle(args.bundle)
    section = ReportSectionKind(args.section)
    draft = _load_draft(args.draft) if args.draft else _read(args.text)
    topic = prompting.PromptTopic(args.topic) if args.topic else None
    report = grounding.score(draft, grounding.GroundingContext(bundle), section, topic)
    _save_text(json.dumps(to_data(report), indent=2, ensure_ascii=False) + "\n", args.output)
    return 0


def _cmd_assemble(args) -> int:
    bundle = _load_bundle(args.bundle)
    drafts = {}
    for name, path in _file_pairs(args.draft, "SECTION"):
        drafts[ReportSectionKind(name)] = _load_draft(path)
    document = pipeline.assemble(bundle, drafts)
    _save_text(pipeline.render_markdown(document), args.output)
    return 0


def _cmd_experiment(args) -> int:
    bundle = _load_bundle(args.bundle)
    issues = validate_bundle(bundle)
    if issues:
        raise ValueError(str(issues[0]))
    profiles = _load_profiles(args.config)
    names = [n.strip() for n in args.backends.split(",") if n.strip()]
    missing = [n for n in names if n not in profiles]
    if missing:
        raise ValueError(f"no backend profile named {missing[0]!r}")

    prompts = prompting.build_matrix(bundle, french_labels=args.french_labels)
    _warn_if_torn(args.store)
    run_id, appended, errors = pipeline.run_experiment(
        bundle, [profiles[n] for n in names], args.store, prompts
    )
    print(f"appended {appended} records to {args.store} as {run_id if appended else '-'} ({errors} errors)")
    return 0


def _warn_if_torn(store: str) -> None:
    lineno = pipeline.torn_line(store)
    if lineno is not None:
        message = "torn final line is not a record; skipped"
        print(f"{store}:{lineno}: warning: {message}", file=sys.stderr)


def _cmd_summarize(args) -> int:
    _warn_if_torn(args.store)
    table = pipeline.summarize(pipeline.iter_store(args.store))
    if args.json:
        _save_text(json.dumps(to_data(table)["rows"], indent=2) + "\n", args.output)
    else:
        _save_text(table.render_text(), args.output)
    return 0


# ---------------------------------------------------------------------------

def _ingest_args(p) -> None:
    p.add_argument("--mandate", help="mandate text file")
    p.add_argument("--tool-locations", action="append", metavar="ITEM=FILE")
    p.add_argument("--lablog-locations", action="append", metavar="ITEM=FILE")
    p.add_argument("--tool-messages", action="append", metavar="ITEM=FILE")
    p.add_argument("--lablog-messages", action="append", metavar="ITEM=FILE")
    p.add_argument("--csv-messages", action="append", metavar="ITEM=FILE")
    p.add_argument("--device-profile", action="append", metavar="ITEM=FILE")
    p.add_argument("--method-steps", metavar="FILE")
    p.add_argument("--items", metavar="FILE", help="JSON list of evidence items")
    p.add_argument("--default-offset", default="UTC+0",
                   help="offset of a timestamp that has none, in tool-report and lab-log"
                        " locations and reduced-CSV messages (default: %(default)s)")
    p.add_argument("-o", "--output")


def _validate_args(p) -> None:
    p.add_argument("--bundle", required=True)


def _transform_args(p) -> None:
    p.add_argument("op", choices=["spatial", "chrono", "days", "colocate", "csv", "places"])
    p.add_argument("--bundle", required=True)
    p.add_argument("--item")
    p.add_argument("--item-b")
    p.add_argument("--radius", type=float, default=transform.DEFAULT_CLUSTER_RADIUS_M)
    p.add_argument("--max-gap-minutes", type=float, default=60.0)
    p.add_argument("--window-minutes", type=float, default=60.0)
    p.add_argument("--offset", default="UTC+0")
    p.add_argument("--gazetteer")
    p.add_argument("-o", "--output")


def _matrix_args(p) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--french-labels", action="store_true")
    p.add_argument("-o", "--output")


def _generate_args(p) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--prompt-id")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--french-labels", action="store_true")
    p.add_argument("-o", "--output")


def _score_args(p) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--section", required=True,
                   choices=[k.value for k in ReportSectionKind])
    p.add_argument("--topic", choices=["conversations", "locations"])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--draft", help="draft JSON from generate")
    group.add_argument("--text", help="plain text file")
    p.add_argument("-o", "--output")


def _assemble_args(p) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("-d", "--draft", action="append", metavar="SECTION=FILE")
    p.add_argument("-o", "--output")


def _experiment_args(p) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--backends", required=True, help="comma-separated profile names")
    p.add_argument("--store", required=True)
    p.add_argument("--french-labels", action="store_true")


def _summarize_args(p) -> None:
    p.add_argument("--store", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")


# name -> (help line, argument declarations, handler), in the order help lists them
_COMMANDS = {
    "ingest": ("parse source texts into a bundle file", _ingest_args, _cmd_ingest),
    "validate": ("check a bundle's invariants", _validate_args, _cmd_validate),
    "transform": ("cluster, bucket, co-locate, reduce", _transform_args, _cmd_transform),
    "matrix": ("enumerate the 36-prompt experiment matrix", _matrix_args, _cmd_matrix),
    "generate": ("run one prompt against one backend", _generate_args, _cmd_generate),
    "score": ("ground a draft against the bundle", _score_args, _cmd_score),
    "assemble": ("compose the six-section report", _assemble_args, _cmd_assemble),
    "experiment": ("run the matrix against backends", _experiment_args, _cmd_experiment),
    "summarize": ("fold a results store into statistics", _summarize_args, _cmd_summarize),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The named command's parser alone, else every command's; usage and errors read the same."""
    description = "Draft forensic report sections from a case bundle and check them against the evidence."
    parser = argparse.ArgumentParser(prog="casedraft", description=description)
    metavar = "{" + ",".join(_COMMANDS) + "}" if command in _COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if metavar else _COMMANDS:
        help_line, declare, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        declare(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, gateway.GatewayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
