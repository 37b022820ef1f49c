#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
the per-seed values as a share of their median, next to the metric's
bound from BENCHMARK.json.

Run from the root of the checkout:

    python3 perfbench/spread.py --seeds 1-10 [--trace 1] [--out FILE]

This is how the files in perfbench/results were made. The per-seed
result lines and the spreads are written to --out as JSON when it is
given. The exit code is 1 when a run exits with an error or reports
failed runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    report = {"numcpu": os.cpu_count(), "commit": commit or "unknown", "trace": args.trace,
              "run_seconds": bench["run_seconds"], "seeds": parse_seeds(args.seeds), "workloads": {}}
    ok = True
    for name in names:
        lines = []
        for seed in report["seeds"]:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                ok = False
            lines.append(line)
            print(name, seed, json.dumps(line), flush=True)
        spreads = {}
        for m in metrics:
            vals = [line["metrics"][m["name"]]["value"] for line in lines]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            spreads[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = m.get("bound")
            print(f"  {name:18} {m['name']:28} median {med:14.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""), flush=True)
        report["workloads"][name] = {"lines": lines, "spreads": spreads}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
