"""Steadiness check: two sets of runs of the same code must agree.

    python3 bench/steady.py [--runs 10] [--workloads golden-mock,stub-http]

Reads the command, run length, workloads and end-to-end metrics with their
bounds from BENCHMARK.json, then makes two sets of ``--runs`` runs of every
workload, one run at a time and each with its own seed (the first set uses
seeds 1..runs, the second runs+1..2*runs).  For every metric it reports
each set's median and spread, the spread being the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, and the drift, how much worse the second median is than the
first as a share of the first.  A metric agrees when its drift is within
its bound and, except for ``setup_s``, both spreads are too.  The share of
failed operations must be exactly the same in both sets.  Exits 0 when
every metric of every workload agrees.  Raw results go to
``.bench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    for s in (0, 1):
        for w in workloads:
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                started = time.monotonic()
                results[w][s].append(one_run(spec["command"], w, seed, args.seconds))
                m = results[w][s][-1]["metrics"]
                print(f"set {s + 1} {w} seed {seed} ({time.monotonic() - started:.0f} s): "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)

    ok = True
    print(f"\n{'workload':12s} {'metric':14s} {'median 1':>12s} {'spread 1':>9s} {'median 2':>12s} "
          f"{'spread 2':>9s} {'drift':>8s} {'bound':>6s}  verdict")
    for w in workloads:
        shares = [{Fraction(r["failed"], r["attempted"]) for r in runs} for runs in results[w]]
        same_share = len(shares[0] | shares[1]) == 1
        ok &= same_share
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            agree = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            steady = name == "setup_s" or max(spreads) < bound / 3
            verdict = ("agrees" if agree else "DISAGREES") + ("" if steady else " (spread above a third of the bound)")
            print(f"{w:12.12s} {name:14s} {medians[0]:12.5g} {spreads[0]:9.2%} {medians[1]:12.5g} "
                  f"{spreads[1]:9.2%} {drift:+8.2%} {bound:6.0%}  {verdict}")
        print(f"{w:12.12s} failed share: {' / '.join(str(sorted(s)) for s in shares)}"
              f" {'same' if same_share else 'DIFFERS'}")

    out = REPO / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\n{'every metric agrees' if ok else 'some metrics disagree'}; raw results in {out.relative_to(REPO)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
