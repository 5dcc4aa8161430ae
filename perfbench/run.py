#!/usr/bin/env python3
"""Benchmark of the HybridTier simulator: one workload, one seed.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus the cell driver)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs the workload's cells as fresh processes, one after another: every
cell seed derived from N once, then again in turn until S seconds have
passed. Each untraced run times set-up and Run() and reports the simulated
statistics; with --trace 1 one traced run of the first cell seed follows.
The output checks of report.py decide which runs failed.

Prints a readable report, writes it with its run manifest to
$CARGO_TARGET_DIR/results/, and prints as its last line one JSON object
with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
Exits non-zero without a result if the build fails or no run succeeds.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

import report

HERE = os.path.dirname(os.path.abspath(__file__))
# Independent cells per run, each with its own seed derived from --seed;
# simulated metrics are medians over them. Sized so that every cell fits
# in one run of BENCHMARK.json's run_seconds.
CELL_SEEDS = {
    "cdn-hybridtier": 5,
    "bfs-tpp": 5,
    "fleet-fair": 3,
    "cxl-failover": 9,
}
SEED_STRIDE = 16
# Every cell run after the build must end within this many seconds.
RUN_BUDGET_S = 170
BUILD_JOBS = 4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def out_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds incrementally; returns the binary path."""
    build_dir = os.path.join(out_root(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    step = ["cmake", "--build", build_dir, "-j", str(BUILD_JOBS)]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench_cell")


def run_cell(binary, workload, seed, mode, deadline, trace_out=None):
    """One cell in a fresh process; returns its record or None. The
    process is killed and waited for if it runs past `deadline`."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--mode", mode]
    if trace_out:
        command += ["--trace-out", trace_out]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s run timed out" % mode)
        return None
    if proc.returncode != 0:
        log("perfbench: %s run exited %d: %s"
            % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
        return None
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("perfbench: unreadable %s output" % mode)
        return None
    if mode == "plain":
        # Set-up = process spawn until Run() was entered, both instants
        # on CLOCK_MONOTONIC.
        record["setup_s"] = (record["run_entered_mono_ns"] - spawned) / 1e9
    return record


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout is
    not necessarily a git repository, so this identifies the code)."""
    root = os.getcwd()
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, _, filenames in sorted(os.walk(top)):
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_describe():
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else \
        "unavailable (not a git checkout)"


def manifest(args, record, runs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "cell_seeds": [args.seed * SEED_STRIDE + i
                       for i in range(CELL_SEEDS[args.workload])],
        "workload_spec": record["workload_spec"],
        "policy_spec": record["policy_spec"],
        "git_describe": git_describe(),
        "source_sha256": source_digest(),
        "compiler": record["compiler"],
        "flags": record["flags"],
        "cpu_model": record["cpu_model"],
        "host": "%s %s, %d cpus" % (platform.system(), platform.machine(),
                                    os.cpu_count() or 0),
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_runs": runs,
        "closed_loop": "one generator thread; op k+1 issues when op k "
                       "completes in virtual time",
    }


def print_report(args, man, values, units, failed_runs, plain, traced):
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                              args.trace))
    for key in ("workload_spec", "policy_spec", "git_describe",
                "source_sha256", "compiler", "flags", "cpu_model"):
        print("  %-14s %s" % (key, man[key]))
    for seed, record in report.first_by_seed(plain).items():
        sim = record["sim"]
        print("  cell seed %d: %d ops, %d accesses, %.3f ms virtual, "
              "p50/p99 over %s" % (seed, sim["ops"], sim["accesses"],
                                   sim["duration_ns"] / 1e6,
                                   "the ops after warmup"
                                   if sim["warmup_end_ns"] else "all ops"))
    for name, value in values.items():
        print("  %-32s %14.6g %s" % (name, value, units.get(name, "")))
    if args.trace:
        rows = report.layer_breakdown(traced)
        print("  reconciliation, host ns per access of the traced run:")
        print("    " + " + ".join("%s %.2f" % (k, rows[k]) for k in
                                  ("gen", "policy", "migrate", "cache",
                                   "touch", "perf", "sampler"))
              + " = %.2f; run %.2f; residual %.2f"
              % (rows["sum"], rows["traced"], rows["residual"]))
    for label, failures in failed_runs:
        for failure in failures:
            print("  FAILED %s: %s" % (label, failure))


def main():
    # A terminated benchmark raises SystemExit, so the running cell
    # process is killed and waited for (subprocess.run does both).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        parser.error("unknown workload %r (known: %s)"
                     % (args.workload, ", ".join(names)))

    if args.seed >= 2 ** 63 // SEED_STRIDE:
        parser.error("--seed must be below %d" % (2 ** 63 // SEED_STRIDE))
    cells = CELL_SEEDS[args.workload]
    seeds = [args.seed * SEED_STRIDE + i for i in range(cells)]

    binary = build()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    plain = []
    while len(plain) < cells or time.monotonic() - start < args.seconds:
        plain.append(run_cell(binary, args.workload,
                              seeds[len(plain) % cells], "plain", deadline))
    traced = False
    if args.trace:
        trace_dir = os.path.join(out_root(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.json"
                                 % (args.workload, args.seed))
        traced = run_cell(binary, args.workload, seeds[0], "traced",
                          deadline, trace_out)
    if all(r is None for r in plain) or (args.trace and traced is None):
        raise SystemExit("perfbench: no usable run to report")

    failed_runs = report.check_runs(args.workload, plain, traced)
    if args.trace:
        values = report.per_layer(traced, plain)
    else:
        values = report.end_to_end(plain)
    attempted = len(plain) + (1 if args.trace else 0)
    try:
        result = report.make_result(values, failed_runs, attempted,
                                    benchmark, args.trace)
    except report.BenchmarkError as error:
        raise SystemExit("perfbench: invalid result: %s" % error)

    first = next(r for r in plain if r is not None)
    man = manifest(args, first, len(plain))
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print_report(args, man, values, units, failed_runs, plain, traced)
    results_dir = os.path.join(out_root(), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"manifest": man, "result": result,
                   "simulated": {seed: r["sim"] for seed, r in
                                 report.first_by_seed(plain).items()},
                   "failed_runs": failed_runs,
                   "untraced_run_wall_ns": [r and r["run_wall_ns"]
                                            for r in plain],
                   "setup_s": [r and r["setup_s"] for r in plain],
                   "traced": traced or None}, f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
