#!/usr/bin/env python3
"""Checks how steady the benchmark's end-to-end metrics are.

    python3 perfbench/spread.py --workloads http_mix,rpc_kv --seeds 1-10

Runs perfbench/run.py --trace 0 once per (workload, seed) with
BENCHMARK.json's run_seconds and prints, per metric, the median and the
quartile spread (Q3 - Q1) / median, with quartiles taken by Python's
statistics.quantiles(values, n=4). A spread is marked "ok" below a third
of the metric's bound, "wide" up to the bound and "OVER" past it
(setup_s is exempt from the spread rule; its medians are compared across
repeated sets instead). Each run's line also gives the host's steal share
(CPU time the hypervisor gave to other guests), which moves mesh_rubbos
most, and how many measurement rounds it reported. Use --json to save the raw values for comparing two sets of runs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    steal = re.search(r"host_steal_share=(\S+)", out.stdout)
    rounds = re.search(r"rounds=(\d+) reported=(\d+)", out.stdout)
    note = (f"host steal share {float(steal.group(1)):.3f}, rounds reported "
            f"{rounds.group(2)}/{rounds.group(1)}" if steal and rounds else "")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed, note


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="write raw values here")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            metrics, elapsed, note = run_once(root, workload, seed,
                                              bench["run_seconds"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, {note}",
                  flush=True)
            for name in bounds:
                values[name].append(metrics[name])
        raw[workload] = values
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = ("ok" if spread < bound / 3 else
                       "wide" if spread <= bound else "OVER")
            if name == "setup_s":
                verdict += " (exempt)"
            print(f"  {workload:12s} {name:24s} median {med:12.5g} "
                  f"spread {spread:6.3f} bound {bound:5.2f} {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
