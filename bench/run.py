"""casedraft benchmark: whole cases driven through ``casedraft.cli.main``.

    python3 bench/run.py --workload golden-mock --seed 1 --seconds 20 --trace 0

One case is what an examiner waits for: ``ingest`` (source texts to a
bundle), ``experiment`` (the 36-prompt matrix drafted on every backend and
each draft grounded), ``summarize`` (store to table) and ``assemble``
(chosen drafts to the rendered report), called in this process one after
another.  The load is a closed loop with one client: the next case starts
when the last one has been checked.  The program is imported from ``src/``
of the checkout the script sits in; nothing is installed.

Workloads (see README.md for their make-up):

* ``golden-mock``: the golden papers under ``tests/data`` on five mock
  backends, each case appending to a store that holds a fixed history.
* ``scaled-mock``: seeded synthetic papers (``--records``, default 200) on
  the same five mock backends, with an empty store per case.
* ``stub-http``: the golden papers on a local-generate and a hosted-chat
  backend, both answered by ``stub_server.py`` in its own process after a
  fixed delay, appending to a store with the same history as golden-mock.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced cases
alternate, and it carries the per-layer metrics from the traced ones plus
the tracing overhead.  Every case's outputs are checked (``checks.py``);
a wrong output aborts with a non-zero exit and no result line.  A draft
whose grounding contradicts what its backend injected counts as a failed
operation instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import http.client
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from casegen import FOREIGN_NAME, NEAR_MISS_NAME, Case, golden_case, scaled_case
from checks import DRAFTED, CheckError, check_bundle, check_records, check_report, check_summary
from tracing import Tracer, case_profile

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK_ROOT = REPO / ".bench_work"

WORKLOADS = {
    "golden-mock": {"papers": "golden", "backends": "mock", "history_runs": 10},
    "scaled-mock": {"papers": "scaled", "backends": "mock", "records": 200},
    "stub-http": {"papers": "golden", "backends": "http", "history_runs": 10},
}
STUB_DELAY_S = 0.010  # per request, a stand-in for a model round trip
SETUP_SAMPLES = 3  # this process plus two probe processes
WARMUP_RECORDS = 40  # size of the scaled-mock warm-up case
API_KEY_ENV = "CASEDRAFT_BENCH_KEY"
HTTP_TIMEOUT_S = 30


def mock_backends(seed: int) -> tuple[dict, dict]:
    """Five mock backends and what each one's drafts must be graded."""
    rng = random.Random(seed)
    # far from every record of the golden and scaled papers
    lat, lon = round(40.45 + 0.5 * rng.random(), 4), round(-74.45 + 0.8 * rng.random(), 4)
    profiles = {
        "faithful": {"kind": "mock"},
        "drop1": {"kind": "mock", "fault": {"kind": "drop_facts", "count": 1}},
        "coordinate": {"kind": "mock", "fault": {"kind": "inject_coordinate", "latitude": lat, "longitude": lon}},
        "foreign-name": {"kind": "mock", "fault": {"kind": "inject_name", "name": FOREIGN_NAME}},
        "near-miss-name": {"kind": "mock", "fault": {"kind": "inject_name", "name": NEAR_MISS_NAME}},
    }
    expectations = {
        "faithful": ("faithful",),
        "drop1": ("drop", 1),
        "coordinate": ("inject", "coordinate"),
        "foreign-name": ("inject", "person_name"),
        "near-miss-name": ("inject", "person_name"),
    }
    return profiles, expectations


def http_backends(url: str) -> tuple[dict, dict]:
    profiles = {
        "local": {"kind": "local_generate", "endpoint_url": url, "timeout": HTTP_TIMEOUT_S},
        "hosted": {"kind": "hosted_chat", "endpoint_url": url, "model_name": "stub-chat",
                   "api_key_env": API_KEY_ENV, "timeout": HTTP_TIMEOUT_S},
    }
    return profiles, {"local": ("faithful",), "hosted": ("faithful",)}


class Workload:
    """One workload's inputs, program, stub server and case runner."""

    def __init__(self, name: str, seed: int, work: Path, records: int | None = None):
        self.name, self.seed, self.work = name, seed, work
        self.spec = WORKLOADS[name]
        work.mkdir(parents=True)
        if self.spec["papers"] == "golden":
            self.case = self.warmup = golden_case(REPO, work)
        else:
            self.case = scaled_case(seed, records or self.spec["records"], work / "papers")
            self.warmup = scaled_case(seed, WARMUP_RECORDS, work / "warmup-papers")
        self.config = work / "backends.json"
        if self.spec["backends"] == "mock":
            self._set_backends(*mock_backends(seed))
        self.cli = None
        self.stub: subprocess.Popen | None = None
        self.stub_port = 0
        self.history: Path | None = None
        self.history_runs: dict[str, int] = {}  # backend -> runs in the history
        self.history_size = 0
        self.history_run_ids: set[str] = set()

    def _set_backends(self, profiles: dict, expectations: dict) -> None:
        self.config.write_text(json.dumps({"profiles": profiles}), encoding="utf-8")
        self.expectations = expectations
        self.backends = list(profiles)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Import casedraft, start the stub server and run one warm-up case.

        Returns the seconds this took, leaving out the time spent computing
        the stub's canned answers, which are benchmark inputs."""
        started = time.perf_counter()
        sys.path.insert(0, str(REPO / "src"))
        self.cli = importlib.import_module("casedraft.cli")
        spent = time.perf_counter() - started
        if self.spec["backends"] == "http":
            responses = self._faithful_responses()
            started = time.perf_counter()
            self._start_stub(responses)
            self._set_backends(*http_backends(f"http://127.0.0.1:{self.stub_port}"))
        else:
            started = time.perf_counter()
        self.run_case(self.warmup, "warmup")
        return spent + time.perf_counter() - started

    def _faithful_responses(self) -> Path:
        """Each golden prompt's faithful restatement, keyed by its digest."""
        from casedraft import gateway, model, prompting

        bundle = self.work / "stub-bundle.json"
        self.call(["ingest", *self.case.ingest_args, "-o", str(bundle)])
        matrix = prompting.build_matrix(model.bundle_from_json(bundle.read_text(encoding="utf-8")))
        answers = {
            hashlib.sha256(p.rendered_text.encode("utf-8")).hexdigest(): gateway.mock_complete(p, gateway.Faithful())
            for p in matrix
        }
        path = self.work / "stub-responses.json"
        path.write_text(json.dumps(answers), encoding="utf-8")
        return path

    def _start_stub(self, responses: Path) -> None:
        key = os.environ.setdefault(API_KEY_ENV, f"bench-{self.seed}-{os.getpid()}")
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_server.py"), "--responses", str(responses),
             "--delay", str(STUB_DELAY_S), "--api-key", key],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise CheckError(f"stub server did not start: {line!r}")
        self.stub_port = int(line.split()[1])

    def stub_stats(self, reset: bool = False) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.stub_port, timeout=10)
        try:
            conn.request("GET", "/stats?reset=1" if reset else "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def build_history(self) -> None:
        """The store's fixed history: earlier runs of the golden case on the
        five mock backends, made with the program's own experiment command
        before any timing."""
        runs = self.spec.get("history_runs", 0)
        if not runs:
            return
        profiles, _ = mock_backends(self.seed)
        config = self.work / "history-backends.json"
        config.write_text(json.dumps({"profiles": profiles}), encoding="utf-8")
        bundle, history = self.work / "history-bundle.json", self.work / "history.jsonl"
        self.call(["ingest", *self.case.ingest_args, "-o", str(bundle)])
        for _ in range(runs):
            self.call(["experiment", "--bundle", str(bundle), "--config", str(config),
                       "--backends", ",".join(profiles), "--store", str(history)])
        with open(history, encoding="utf-8") as fh:
            self.history_run_ids = {json.loads(line)["run_id"] for line in fh}
        if len(self.history_run_ids) != runs:
            raise CheckError(f"history: {runs} runs wrote run ids {sorted(self.history_run_ids)}")
        self.history = history
        self.history_runs = dict.fromkeys(profiles, runs)
        self.history_size = history.stat().st_size

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdin.close()
            self.stub.stdout.close()
            self.stub = None

    # -- one case -----------------------------------------------------------

    def call(self, argv: list[str]) -> float:
        """One CLI call in this process; returns its wall time."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            rc = self.cli.main(argv)
            elapsed = time.perf_counter() - started
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:") or ": error: " in line]
        if rc != 0 or errors:
            raise CheckError(f"casedraft {argv[0]} exited {rc}: {err.getvalue()[-2000:]}")
        return elapsed

    def run_case(self, case: Case, tag: str = "case") -> dict:
        # the last case's checks leave garbage of the benchmark's own; collect
        # it here so that no collection of it is charged to a timed call
        gc.collect()
        d = self.work / tag
        d.mkdir(exist_ok=True)
        bundle, store = d / "bundle.json", d / "store.jsonl"
        summary, report = d / "summary.json", d / "report.md"
        if self.history is not None:
            shutil.copyfile(self.history, store)
        else:
            store.unlink(missing_ok=True)
        http_case = self.stub is not None
        if http_case:
            before = self.stub_stats(reset=True)

        t_ingest = self.call(["ingest", *case.ingest_args, "-o", str(bundle)])
        t_experiment = self.call(["experiment", "--bundle", str(bundle), "--config", str(self.config),
                                  "--backends", ",".join(self.backends), "--store", str(store)])
        with open(store, "rb") as fh:
            fh.seek(self.history_size)
            records = [json.loads(line) for line in fh.read().decode("utf-8").splitlines() if line.strip()]
        attempted, failed, failed_by_backend = check_records(records, self.expectations, case, self.history_run_ids)
        reporter = self.backends[0]
        chosen, draft_args = {}, []
        for section in DRAFTED:
            record = next(r for r in records if r["backend"] == reporter
                          and r["prompt"]["section"] == section and r["record_kind"] == "result")
            chosen[section] = record["draft"]
            path = d / f"draft-{section}.json"
            path.write_text(json.dumps(record["draft"]), encoding="utf-8")
            draft_args += ["-d", f"{section}={path}"]
        t_summarize = self.call(["summarize", "--store", str(store), "--json", "-o", str(summary)])
        t_assemble = self.call(["assemble", "--bundle", str(bundle), *draft_args, "-o", str(report)])

        check_bundle(bundle.read_text(encoding="utf-8"), case)
        runs = dict(self.history_runs)
        for backend in self.backends:
            runs[backend] = runs.get(backend, 0) + 1
        check_summary(summary.read_text(encoding="utf-8"), runs)
        check_report(report.read_text(encoding="utf-8"), chosen)
        result = {
            "ingest": t_ingest, "experiment": t_experiment,
            "summarize": t_summarize, "assemble": t_assemble,
            "case": t_ingest + t_experiment + t_summarize + t_assemble,
            "attempted": attempted, "failed": failed, "failed_by_backend": failed_by_backend,
            "bundle_bytes": bundle.stat().st_size, "store_bytes": store.stat().st_size,
            "requests": 0, "connections": 0, "max_in_flight": 0,
        }
        if http_case:
            after = self.stub_stats()
            result["requests"] = after["requests"] - before["requests"]
            result["connections"] = after["connections"] - before["connections"]
            result["max_in_flight"] = after["peak_in_flight"]
            if result["requests"] != attempted:
                raise CheckError(f"stub saw {result['requests']} requests for {attempted} drafts")
        return result


# ---------------------------------------------------------------------------
# metrics

def end_to_end(setups: list[float], cases: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "case_s": (statistics.median(c["case"] for c in cases), "s"),
        "ingest_s": (statistics.median(c["ingest"] for c in cases), "s"),
        "report_s": (statistics.median(c["summarize"] + c["assemble"] for c in cases), "s"),
        "drafts_per_s": (sum(c["attempted"] for c in cases) / sum(c["experiment"] for c in cases), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-case means over the traced cases; second value is a cross-check."""
    p = case_profile(tracer.spans)
    n = len(traced)
    dur, calls, extra = p["dur"], p["calls"], p["extra"]
    parse_names = [k for k in calls if k.startswith("ingest.parse_")]
    parse_s = sum(dur[f"ingest:{k}"] for k in parse_names)
    lines = sum(extra[("ingest", f"{k}#0")] for k in parse_names)
    records = sum(extra[("ingest", f"{k}#1")] for k in parse_names)
    generate_s = dur["gateway.generate"]
    wait_s = sum(v for (cmd, k), v in extra.items() if k == "gateway.generate")
    traced_case = p["root_time"] / n
    untraced_case = statistics.fmean(c["case"] for c in untraced)
    m = {
        "ingest.parse_s": (parse_s / n, "s"),
        "ingest.records": (records / n, "count"),
        "ingest.lines_per_s": (lines / parse_s if parse_s else 0.0, "1/s"),
        "model.bundle_json_s": ((dur["model.bundle_to_json"] + dur["model.bundle_from_json"]) / n, "s"),
        "model.bundle_bytes": (statistics.fmean(c["bundle_bytes"] for c in traced), "bytes"),
        "prompting.build_matrix_s": (dur["prompting.build_matrix"] / n, "s"),
        "prompting.prompt_chars": (sum(v for (cmd, k), v in extra.items() if k == "prompting.build_matrix") / n, "count"),
        "gateway.generate_s": (generate_s / n, "s"),
        "gateway.wait_s": (wait_s / n, "s"),
        "gateway.overhead_ms_per_request": (
            1000.0 * (generate_s - wait_s) / calls["gateway.generate"] if calls["gateway.generate"] else 0.0, "ms"),
        "gateway.requests": (statistics.fmean(c["requests"] for c in traced), "count"),
        "gateway.connections": (statistics.fmean(c["connections"] for c in traced), "count"),
        "gateway.max_in_flight": (max(c["max_in_flight"] for c in traced), "count"),
        "grounding.score_s": (dur["grounding.score"] / n, "s"),
        "grounding.score_calls": (calls["grounding.score"] / n, "count"),
        "grounding.build_roster_s": (dur["grounding.build_roster"] / n, "s"),
        "grounding.extract_claims_s": (dur["grounding.extract_claims"] / n, "s"),
        "grounding.verify_s": (dur["grounding.verify"] / n, "s"),
        "grounding.required_facts_s": (dur["grounding.required_facts_for"] / n, "s"),
        "grounding.facts_from_input_s": (dur["grounding.facts_from_input"] / n, "s"),
        "grounding.claims": (sum(v for (cmd, k), v in extra.items() if k == "grounding.extract_claims") / n, "count"),
        "transform.cluster_s": (dur["transform.group_locations_spatial"] / n, "s"),
        "transform.cluster_calls": (calls["transform.group_locations_spatial"] / n, "count"),
        "transform.haversine_calls": (tracer.counters["transform.haversine_m"] / n, "count"),
        "transform.reduce_csv_s": (dur["transform.reduce_to_csv"] / n, "s"),
        "pipeline.run_experiment_self_s": (p["self"]["pipeline.run_experiment"] / n, "s"),
        "pipeline.store_append_s": (dur["pipeline.append_records"] / n, "s"),
        "pipeline.store_read_s": (dur["pipeline.read_store"] / n, "s"),
        "pipeline.store_bytes": (statistics.fmean(c["store_bytes"] for c in traced), "bytes"),
        "pipeline.summarize_s": (dur["pipeline.summarize"] / n, "s"),
        "pipeline.assemble_s": (dur["pipeline.assemble"] / n, "s"),
        "pipeline.render_markdown_s": (dur["pipeline.render_markdown"] / n, "s"),
    }
    for module in ("cli", "model", "ingest", "transform", "prompting", "gateway", "grounding", "pipeline"):
        m[f"{module}.self_s"] = (p["module_self"][module] / n, "s")
    m["trace.case_s"] = (traced_case, "s")
    m["trace.untraced_case_s"] = (untraced_case, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_case - untraced_case) / untraced_case, "%")
    cross = {"self_sum": sum(p["module_self"].values()) / n, "traced_case": traced_case}
    return m, cross


# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int, work: Path, records: int | None) -> float:
    """Set-up time measured in a fresh process, so the import is cold."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--probe-setup", "--workload", workload,
         "--seed", str(seed), "--work", str(work)] + (["--records", str(records)] if records else []),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:  # interrupted: let the probe stop its own stub
            proc.terminate()
            proc.wait()
    if proc.returncode != 0:
        raise CheckError(f"set-up probe failed: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])["setup_s"]


def run(args) -> dict:
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work = WORK_ROOT / tag
    wl = None
    try:
        wl = Workload(args.workload, args.seed, work, args.records)
        setups = [wl.setup()]
        wl.build_history()
        for i in range(SETUP_SAMPLES - 1):
            setups.append(probe_setup(args.workload, args.seed, work / f"probe{i}", args.records))

        tracer = Tracer() if args.trace else None
        package = sys.modules["casedraft"]
        traced: list[dict] = []
        untraced: list[dict] = []
        started = time.perf_counter()
        while len(untraced) + len(traced) < (2 if tracer else 1) or time.perf_counter() - started < args.seconds:
            if tracer is not None and len(untraced) > len(traced):
                tracer.case = len(traced)
                tracer.install(package)
                try:
                    traced.append(wl.run_case(wl.case))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(wl.run_case(wl.case))
        elapsed = time.perf_counter() - started
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)

    cases = untraced + traced
    attempted = sum(c["attempted"] for c in cases)
    failed = sum(c["failed"] for c in cases)
    by_backend: dict[str, int] = {}
    for c in cases:
        for backend, count in c["failed_by_backend"].items():
            by_backend[backend] = by_backend.get(backend, 0) + count
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} cases in {elapsed:.1f} s, "
          f"{wl.case.record_count} records per case, {attempted} drafts attempted, {failed} failed "
          f"{by_backend or ''}")
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    if tracer is None:
        metrics = end_to_end(setups, untraced)
    else:
        metrics, cross = per_layer(tracer, traced, untraced)
        WORK_ROOT.mkdir(exist_ok=True)
        trace_file = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        print(f"{len(traced)} traced and {len(untraced)} untraced cases; spans in {trace_file.relative_to(REPO)}")
        print(f"tracing overhead: {metrics['trace.overhead_pct'][0]:+.1f}% "
              f"(traced case {metrics['trace.case_s'][0]:.4f} s, untraced {metrics['trace.untraced_case_s'][0]:.4f} s)")
        print(f"per-module self times sum to {cross['self_sum']:.6f} s per traced case; "
              f"traced case_s {cross['traced_case']:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="casedraft end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, help="scaled-mock size (default %d)" % WORKLOADS["scaled-mock"]["records"])
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # on termination, still stop the stub server and remove the scratch files
    def terminate(*_):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(143)

    signal.signal(signal.SIGTERM, terminate)

    needed = [REPO / "src" / "casedraft" / "cli.py"]
    if WORKLOADS[args.workload]["papers"] == "golden":
        needed.append(REPO / "tests" / "data" / "full_mandate.txt")
    missing = [str(p.relative_to(REPO)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: cannot run without {', '.join(missing)} in {REPO}", file=sys.stderr)
        return 2

    try:
        if args.probe_setup:
            wl = Workload(args.workload, args.seed, Path(args.work), args.records)
            try:
                print(json.dumps({"setup_s": wl.setup()}))
            finally:
                wl.close()
            return 0
        result = run(args)
    except CheckError as exc:
        print(f"benchmark: workload aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
