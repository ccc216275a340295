#!/usr/bin/env python3
"""Steadiness report: run one workload N times and show each metric's spread.

    python3 perfbench/steadiness.py --workload graph_nav --runs 10
    python3 perfbench/steadiness.py --workload sp2b_read --runs 5 \\
        --save first.json
    python3 perfbench/steadiness.py --workload sp2b_read --runs 5 \\
        --against first.json

Run from the repository root.  Run i (1..N) is `perfbench/run.py` with
seed i and the run length from BENCHMARK.json.  For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (Q3 - Q1) / median and that spread as a share of the
metric's bound.  A spread above its bound is marked NOISY, one above a
third of its bound "wide".  --against compares each median with a saved
earlier set and marks a move of more than the bound, in either
direction, as MOVED: two sets of the same code must agree.
--record-golden stores the runs' cold-pass answers in golden.json.

Exits 1 when a run fails or a spread or median move breaks a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        report_path = f.name
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0",
             "--report", report_path],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            return None, None
        with open(report_path) as f:
            report = json.load(f)
        return json.loads(lines[-1]), report
    finally:
        os.unlink(report_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save", help="write the per-run values here")
    ap.add_argument("--against", help="compare medians with a --save file")
    ap.add_argument("--record-golden", action="store_true",
                    help="store the cold-pass answers in golden.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {}
    templates = {}
    answers = {}
    ok = True
    for seed in range(1, args.runs + 1):
        result, report = run_once(args.workload, seed, seconds)
        if result is None or not result["correct"]:
            print("run with seed %d FAILED" % seed)
            ok = False
            continue
        answers[str(seed)] = {"fingerprint": report["cold_fingerprint"],
                              "rows": report["cold_rows"],
                              "ops": report["cold_ops"]}
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, t in report["info"]["templates"].items():
            templates.setdefault(name, []).append(t["median_ms"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.5g" % (n, m["value"]) for n, m in result["metrics"].items()
            if n in bounds)), flush=True)

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["values"]

    print("\n%-30s %12s %12s %12s %8s %8s %7s  %s" % (
        "metric", "median", "Q1", "Q3", "spread", "bound", "/bound", "note"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        b = bounds[name]
        share = spread / b["bound"]
        note = "NOISY" if share > 1 else "wide" if share > 1 / 3 else ""
        if share > 1:
            ok = False
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) / before if b["better"] == "lower" \
                else (before - med) / before
            note += " median %+.1f%% vs earlier" % (100 * worse)
            if abs(worse) > b["bound"]:
                note, ok = note + " MOVED", False
        print("%-30s %12.5g %12.5g %12.5g %7.1f%% %7.0f%% %6.2f  %s" % (
            name, med, q1, q3, 100 * spread, 100 * b["bound"], share, note))

    for name, v in sorted(templates.items()):
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        print("template %-21s %12.5g %12.5g %12.5g %7.1f%%" % (
            name, med, q1, q3, 100 * (q3 - q1) / med if med else 0))

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f,
                      indent=1)
    if args.record_golden:
        path = os.path.join(HERE, "golden.json")
        with open(path) as f:
            golden = json.load(f)
        golden.setdefault(args.workload, {}).update(answers)
        with open(path, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
