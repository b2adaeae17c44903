#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the built benchmark once per seed on each workload and prints, per
metric, the median and the distance between the first and third
quartile as a share of the median. Run from the repository root after a
release build:

    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    python3 perfbench/spread.py --seeds 1-10 [--workloads table1_sat,serve_mix] [--logs DIR]

With --logs, each run's standard error (one line per check or request)
is kept as DIR/<workload>-<seed>.err.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--binary", default=os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")),
        "release", "sec-perfbench"))
    ap.add_argument("--logs", default=None)
    args = ap.parse_args()
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads.split(","):
        runs = []
        for s in args.seeds:
            err = (open(os.path.join(args.logs, f"{w}-{s}.err"), "w")
                   if args.logs else subprocess.DEVNULL)
            out = subprocess.run(
                [args.binary, "--workload", w, "--seed", str(s),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=err, text=True)
            if args.logs:
                err.close()
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{w} seed {s}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        print(f"{w}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={sorted({(r['failed'], r['attempted']) for r in runs})}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            print(f"  {name:18} median {med:12.4f}  spread {(q[2] - q[0]) / med:6.3f}"
                  f"  bound {bound}")


if __name__ == "__main__":
    main()
