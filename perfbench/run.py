#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload <explore|sim|power|fuzz> \\
        --seed <n> --seconds <s> --trace <0|1> \\
        [--record <file.jsonl>] [--trace-out <file.json>]

The harness and the isdl-tools libraries are built with CMake into
$CARGO_TARGET_DIR/perfbench-<checkout> (default .bench_build/perfbench-...)
on first use; <checkout> is a short hash of this checkout's path, so two
checkouts sharing a target directory keep separate builds. Everything the
harness prints is passed through; the last line of standard output is the
run's JSON result. With --trace 0, set-up time is measured in several fresh
processes and the median replaces the harness's single reading.
--record appends the result, with the workload, seed and sim_digest, to a
JSON-lines file for perfbench/compare.py. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("explore", "sim", "power", "fuzz")
SETUP_SAMPLES = 31  # set-up processes per run, the timed run included


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    checkout = hashlib.sha1(os.path.realpath(HERE).encode()).hexdigest()[:10]
    return os.path.join(os.path.abspath(base), "perfbench-" + checkout)


def build(bdir):
    """Configures (once) and builds the harness; returns its path."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                if "-S" in cmd and os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(bdir, "perfbench")


def run_harness(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("harness exited with %d" % proc.returncode)
    return proc.stdout.splitlines()


def expected_metrics(trace):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--record", help="append the result to this JSONL file")
    ap.add_argument("--trace-out", help="Chrome trace path (--trace 1)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    bdir = build_dir()
    harness = build(bdir)
    base = [harness, "--workload", args.workload, "--seed", str(args.seed)]
    timeout = 3 * args.seconds + 120

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            lines = run_harness(base + ["--setup-only"], timeout)
            setup_samples.append(json.loads(lines[-1])["setup_s"])

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_out = args.trace_out or os.path.join(
            bdir, "traces", "%s-%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    lines = run_harness(cmd, timeout)
    if not lines:
        fail("harness printed nothing")
    result = json.loads(lines[-1])

    if setup_samples:
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        median = statistics.median(setup_samples)
        result["metrics"]["setup_s"]["value"] = median
        lines.insert(-1, "setup_s median of %d processes: %.6f s (%s)" % (
            len(setup_samples), median,
            ", ".join("%.4f" % s for s in setup_samples)))
    names = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        fail("harness metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)))

    digest = None
    printed = {}  # latency figures the harness prints but BENCHMARK.json
    for line in lines:  # does not gate
        if line.startswith("sim_digest: "):
            digest = line.split()[1]
        m = re.match(r"\s+(op_ms_p50|op_ms_tail)\s+(\S+) ms", line)
        if m:
            printed[m.group(1)] = {"value": float(m.group(2)), "unit": "ms"}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "sim_digest": digest, "printed": printed,
                                "result": result}) + "\n")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
