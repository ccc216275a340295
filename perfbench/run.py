#!/usr/bin/env python3
"""End-to-end TriAL query benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload sp2b_read --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/ (and with it the
repository's `trial` library) into $CARGO_TARGET_DIR or .bench_build,
runs the benchmark binary once, checks the cold-pass answers against
perfbench/golden.json when the seed is recorded there, prints every
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the metrics are the per-layer ones and the span trace is
written to <build dir>/work/spans-<workload>-<seed>.json.  The exit code
is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds trial_perfbench (incremental); returns its path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "trial_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "trial_perfbench")


def golden_check(report):
    """Compares the cold-pass answers with the recorded ones, if any."""
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    want = golden.get(report["workload"], {}).get(str(report["seed"]))
    if want is None:
        return None
    got = {"fingerprint": report["cold_fingerprint"],
           "rows": report["cold_rows"], "ops": report["cold_ops"]}
    if got != want:
        return "cold-pass answers %s differ from golden.json %s" % (got, want)
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", help="also write the binary's full report "
                    "(fingerprints, templates) to this file")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(
            work, "spans-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print("perfbench: trial_perfbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 2
    report = json.loads(lines[-1])
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f)

    correct = bool(report["correct"])
    failed = int(report["failed"])
    for err in report["errors"]:
        print("perfbench: FAILED: %s" % err, file=sys.stderr)
    golden = golden_check(report)
    if golden:
        print("perfbench: FAILED: %s" % golden, file=sys.stderr)
        correct = False
        failed += 1
    elif golden is None:
        print("perfbench: seed %d has no golden answers recorded"
              % args.seed, file=sys.stderr)

    print("workload %s  seed %d  trace %d  cold fingerprint %s (%d rows)"
          % (args.workload, args.seed, args.trace,
             report["cold_fingerprint"], report["cold_rows"]))
    for name, t in sorted(report["info"]["templates"].items()):
        print("  template %-16s median %10.4f ms  %10d rows"
              % (name, t["median_ms"], t["rows"]))
    for name, m in report["metrics"].items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": failed,
                      "metrics": report["metrics"]}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
