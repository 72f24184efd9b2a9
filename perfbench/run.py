#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds this directory's CMake package (which compiles the library from
../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset, and runs the benchmark binary. The binary reports metric
values by name; this script checks the names against BENCHMARK.json,
attaches the units listed there, and passes the binary's other lines
through. The last line of stdout is the JSON result.
Exits non-zero, without a result line, when the build or the binary
fails to produce one; exits 1 after the result line when an output check
failed. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "vp_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "vp_perfbench")


def make_result(line, spec, trace):
    """Turn the binary's last line into the benchmark result.

    The binary reports metric values by name only; the names and units
    live in BENCHMARK.json. Returns (result, not_exercised) or raises
    ValueError when the line is not a valid report.
    """
    report = json.loads(line)
    if set(report) != {"correct", "attempted", "failed", "values"}:
        raise ValueError("the binary's report has the wrong keys")
    metrics = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in metrics}
    extra = sorted(set(report["values"]) - names)
    if extra:
        raise ValueError(f"metrics not in BENCHMARK.json: {extra}")
    # A per-layer metric a workload does not exercise reads 0 (no work in
    # that layer); an end-to-end one reads the constant 1.
    default = 0.0 if trace else 1.0
    not_exercised = [m["name"] for m in metrics
                     if m["name"] not in report["values"]]
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["values"].get(m["name"],
                                                              default),
                                "unit": m["unit"]}
                    for m in metrics},
    }
    return result, not_exercised


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))

    scratch = os.path.join(target, f"perfbench-run-{os.getpid()}")
    spans_dir = os.path.join(target, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir,
                         f"{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        if not lines:
            raise ValueError("the binary printed nothing")
        result, not_exercised = make_result(lines[-1], spec, args.trace)
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: {e} (binary exit {proc.returncode})\n")
        return proc.returncode or 1
    out = lines[:-1]
    if not_exercised and not args.trace:
        out.append("# not exercised by this workload (printed as 1): " +
                   ", ".join(not_exercised))
    out.append(json.dumps(result))
    sys.stdout.write("\n".join(out) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)
