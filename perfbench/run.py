#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <http_mix|rpc_kv|mesh_rubbos> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (which
compiles the hynet sources in src/) into $CARGO_TARGET_DIR, default
.bench_build, then runs the benchmark binary. Build output goes to stderr;
the benchmark's last stdout line is its JSON result. BENCHMARK.json is the
one list of metric names and units and of each workload's open-loop rate
(named in its `why`): a run whose result line or host stamp differs from it
fails. The exit code is the benchmark's, or 1 when the build fails, the run
overruns its time limit or its output differs from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    source = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def check(bench, workload, trace, stdout):
    """Compares a run's host stamp and result line with BENCHMARK.json;
    returns what differs."""
    lines = stdout.splitlines()
    if not lines:
        return ["no output"]
    problems = []
    why = {w["name"]: w["why"] for w in bench["workloads"]}.get(workload)
    stamp = "# host "
    host = next((json.loads(line[len(stamp):]) for line in lines
                 if line.startswith(stamp)), {})
    rate = f"open loop {host.get('open_rate', 0):g} req/s"
    if why is None:
        problems.append(f"workload {workload} is not in BENCHMARK.json")
    elif rate not in why:
        problems.append(f"the {workload} why does not name its rate: {rate}")
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    try:
        got = {name: m["unit"]
               for name, m in json.loads(lines[-1])["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return problems + ["the last line is not a result"]
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            problems.append(f"metric {name}: BENCHMARK.json unit "
                            f"{want.get(name)}, result unit {got.get(name)}")
    return problems


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 1
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(root),
               PERFBENCH_SPANS_DIR=spans_dir)
    try:
        # run() kills the benchmark and waits for it on a timeout.
        proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 2:  # usage error, reported by the benchmark
        return 2
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload")
    ap.add_argument("--trace", type=int)
    args, _ = ap.parse_known_args()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = check(bench, args.workload, args.trace, proc.stdout)
    for problem in problems:
        log(f"output differs from BENCHMARK.json: {problem}")
    return 1 if problems else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
