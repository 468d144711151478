#!/usr/bin/env python3
"""hedc-e2e: end-to-end benchmark of the HEDC stack over real HTTP sockets.

Run from the root of a checkout:

    python3 hedc_e2e/run.py --workload browse --seed 1 --seconds 20 --trace 0

Builds the benchmark (hedc_e2e/CMakeLists.txt, compiled against ../src) into
$CARGO_TARGET_DIR/hedc_e2e (default .bench_build/hedc_e2e), runs one
workload, checks that the output names exactly the metrics BENCHMARK.json
declares with their units, and prints that result as the last line of
standard output. Build logs go to standard error. Exits non-zero without a
result when the build or the run fails.

--smoke runs a short, reduced-size variant of the workload (used by
hedc_e2e/tests/run_tests.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hedc_e2e")


def build(targets=("hedc_e2e",)):
    """Configures and builds the benchmark package; returns the build dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(os.cpu_count() or 2)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("hedc-e2e: build step failed: " + " ".join(step))
    return out


def code_id():
    """The commit of a git checkout, else a SHA-256 over the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              universal_newlines=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, declared):
    """Problems with a result object against the declared metrics."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append("missing metric " + name)
    for name in sorted(set(metrics) - set(declared)):
        problems.append("undeclared metric " + name)
    for name, entry in metrics.items():
        if name in declared and entry.get("unit") != declared[name]:
            problems.append("unit of %s is %r, declared %r"
                            % (name, entry.get("unit"), declared[name]))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("value of %s is not a number" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "progressive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out = build()
    # Write back what the build left dirty, so that the writeback does not
    # land in the run's WAL fsyncs.
    os.sync()
    state = os.path.join(out, "state")
    os.makedirs(state, exist_ok=True)
    command = [os.path.join(out, "hedc_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--state-dir", state,
               "--commit", code_id()]
    if args.smoke:
        command.append("--smoke")
    run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                         universal_newlines=True)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or not lines:
        sys.exit("hedc-e2e: run failed with exit code %d" % run.returncode)
    result = json.loads(lines[-1])
    problems = check_result(result, declared_metrics(args.trace == 1))
    if problems:
        sys.exit("hedc-e2e: bad result: " + "; ".join(problems))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
