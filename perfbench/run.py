#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the sgnn library and the benchmark program from the source tree this
file sits in (CMake, into $CARGO_TARGET_DIR or .bench_build at the tree
root; the first call compiles, later calls only check), runs one workload
and prints its result as the last line of standard output:

    {"correct": true, "attempted": 50, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones declared in
BENCHMARK.json, with --trace 1 the per-layer ones (0 for a layer the
workload does not exercise); the traced run also writes a Chrome trace to
<build dir>/work/<workload>.trace.json.
--self-test builds and runs the tests of the benchmark's own helpers.
Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return out / target


def clean_env():
    # The benchmark sets lanes, backend and dtype itself; inherited sgnn
    # overrides would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGNN_")}
    env["SGNN_LOG_LEVEL"] = "warn"
    return env


def declared():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def result_line(measured, spec, trace):
    """The benchmark's result from the program's own: the metrics of the
    mode, named and with units as BENCHMARK.json declares them. A per-layer
    metric the workload does not exercise reads 0; a missing end-to-end
    metric, or a name declared nowhere, is an error."""
    if not isinstance(measured, dict) or set(measured) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result line does not have exactly the four result keys")
    if not isinstance(measured["attempted"], int) or measured["attempted"] < 1:
        fail("result attempted must be a whole number >= 1")
    if not isinstance(measured["failed"], int) or measured["failed"] < 0:
        fail("result failed must be a whole number >= 0")
    values = measured["metrics"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if set(values) - known:
        fail(f"undeclared metrics {sorted(set(values) - known)}")
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in values]
    if missing:
        fail(f"end-to-end metrics not measured: {missing}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    return {"correct": measured["correct"] is True,
            "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def run_workload(args):
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (have {', '.join(names)})")
    binary = build("perfbench")
    work = build_dir() / "work"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=clean_env(),
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"benchmark run failed: {error}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited {done.returncode}")
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    result = result_line(measured, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


def self_test():
    binary = build("perfbench_selftest")
    done = subprocess.run([str(binary)], env=clean_env(), cwd=build_dir(),
                          timeout=RUN_TIMEOUT_S)
    sys.exit(done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        fail("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    run_workload(args)


if __name__ == "__main__":
    main()
