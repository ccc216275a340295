#!/usr/bin/env python3
"""Checks smoke bench output against the committed bench baselines.

For every committed BENCH_<name>.json at the repository root (except
BENCH_e2e_*.json, which perfbench/steadiness.py owns), SMOKE_DIR must
hold SMOKE_<name>.json with the same tables and columns.  A committed
baseline recorded on fewer than two cores fails: its multi-worker rows
measure chunking overhead, not speedup.  The store_open smoke must time
appends on both backings at both sizes.

  python3 bench/check_baselines.py bench-artifacts
  python3 bench/check_baselines.py --run=build/bench build/bench/smoke

--run=BIN_DIR first writes each SMOKE_<name>.json by running
BIN_DIR/bench_<name> with TRIAL_BENCH_SMOKE=1.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = {"benchmark", "description", "host_cores", "tables"}


def baselines():
    for f in sorted(os.listdir(ROOT)):
        if (f.startswith("BENCH_") and f.endswith(".json")
                and not f.startswith("BENCH_e2e_")):
            yield f[len("BENCH_"):-len(".json")]


def columns(doc):
    """{table: column list}; every row of a table has the same columns."""
    out = {}
    for table, rows in doc["tables"].items():
        cols = {tuple(row) for row in rows}
        if len(cols) != 1:
            raise ValueError(f"table {table}: rows differ in columns: {cols}")
        out[table] = list(cols.pop())
    return out


def check(name, smoke_dir):
    errors = []
    base = json.load(open(os.path.join(ROOT, f"BENCH_{name}.json")))
    smoke = json.load(open(os.path.join(smoke_dir, f"SMOKE_{name}.json")))
    for label, doc in (("baseline", base), ("smoke", smoke)):
        if set(doc) != SCHEMA:
            errors.append(f"{label} keys {sorted(doc)} != {sorted(SCHEMA)}")
            return errors
        if doc["benchmark"] != f"bench_{name}":
            errors.append(f"{label} names benchmark {doc['benchmark']}")
    if base["host_cores"] < 2:
        errors.append(f"baseline recorded with host_cores="
                      f"{base['host_cores']}; re-record on real cores")
    try:
        want, got = columns(base), columns(smoke)
    except ValueError as e:
        return errors + [str(e)]
    if want != got:
        errors.append(f"tables/columns differ:\n  baseline {want}\n"
                      f"  smoke    {got}")
    if name == "store_open" and not errors:
        # Append + read-back and the rebuild after it, in memory and
        # snapshot-backed, at 10^5 and 10^6 triples.
        timed = sorted((r["backing"], r["num_triples"] >= 500000)
                       for r in smoke["tables"]["appends"]
                       if r["append_select_ms"] > 0 and r["rebuild_ms"] > 0)
        if timed != [("in-memory", False), ("in-memory", True),
                     ("snapshot", False), ("snapshot", True)]:
            errors.append(f"appends rows: {smoke['tables']['appends']}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("smoke_dir")
    parser.add_argument("--run", metavar="BIN_DIR")
    args = parser.parse_args()
    names = list(baselines())
    if args.run:
        os.makedirs(args.smoke_dir, exist_ok=True)
        env = dict(os.environ, TRIAL_BENCH_SMOKE="1")
        for name in names:
            env["TRIAL_BENCH_JSON"] = os.path.join(args.smoke_dir,
                                                   f"SMOKE_{name}.json")
            subprocess.run([os.path.join(args.run, f"bench_{name}")],
                           env=env, check=True, stdout=subprocess.DEVNULL)
    failed = False
    for name in names:
        try:
            errors = check(name, args.smoke_dir)
        except (OSError, ValueError, KeyError) as e:
            errors = [repr(e)]
        print(f"{name}: {'ok' if not errors else 'FAIL'}")
        for e in errors:
            print(f"  {e}")
        failed |= bool(errors)
    return 1 if failed or not names else 0


if __name__ == "__main__":
    sys.exit(main())
