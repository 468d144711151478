#!/usr/bin/env python3
"""The hedc-e2e benchmark's own tests.

    python3 hedc_e2e/tests/run_tests.py [--no-smoke]

1. percentile and tail selection (the hedc_e2e_stats_test binary);
2. the output schema: BENCHMARK.json is well formed, every metric has a
   unit, and run.py's result check rejects missing, undeclared and
   mis-united metrics;
3. a smoke run of every workload in BENCHMARK.json, untraced and traced,
   through run.py --smoke, each of which must report correct=true.

Builds into $CARGO_TARGET_DIR/hedc_e2e like run.py. Exits non-zero on the
first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (hedc_e2e/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    sys.exit("FAILED: " + message)


def test_stats(build_dir):
    binary = os.path.join(build_dir, "hedc_e2e_stats_test")
    if subprocess.run([binary]).returncode != 0:
        fail("stats_test")


def test_schema():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        fail("BENCHMARK.json keys %s" % sorted(spec))
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            fail("workload entry %s" % w)
        names.add(w["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys:
                fail("%s entry %s" % (section, m))
            if not NAME.match(m["name"]) or m["name"] in names:
                fail("metric name %r invalid or reused" % m["name"])
            names.add(m["name"])
            if not UNIT.match(m["unit"]):
                fail("metric %s has no valid unit" % m["name"])
            if m["better"] not in ("lower", "higher"):
                fail("metric %s better=%r" % (m["name"], m["better"]))
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail("metric %s bound %r" % (m["name"], m["bound"]))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be declared in s, lower is better")

    declared = run.declared_metrics(trace=False)
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u}
                        for n, u in declared.items()}}
    if run.check_result(good, declared):
        fail("a well-formed result was rejected")
    some = sorted(declared)[0]
    missing = json.loads(json.dumps(good))
    del missing["metrics"][some]
    extra = json.loads(json.dumps(good))
    extra["metrics"]["no_such_metric"] = {"value": 1, "unit": "s"}
    wrong_unit = json.loads(json.dumps(good))
    wrong_unit["metrics"][some]["unit"] = "furlongs"
    extra_key = json.loads(json.dumps(good))
    extra_key["meta"] = {}
    for label, bad in (("missing", missing), ("undeclared", extra),
                       ("unit", wrong_unit), ("keys", extra_key)):
        if not run.check_result(bad, declared):
            fail("check_result accepted a result with a bad %s" % label)
    print("schema: ok")


def test_smoke():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", trace, "--smoke"],
                stdout=subprocess.PIPE, universal_newlines=True, cwd=run.ROOT)
            if done.returncode != 0:
                fail("smoke %s trace %s exited %d"
                     % (workload, trace, done.returncode))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                fail("smoke %s trace %s: %d of %d failed"
                     % (workload, trace, result["failed"],
                        result["attempted"]))
            print("smoke %s trace %s: ok (%d requests)"
                  % (workload, trace, result["attempted"]))


def main():
    build_dir = run.build(targets=("hedc_e2e", "hedc_e2e_stats_test"))
    test_stats(build_dir)
    test_schema()
    if "--no-smoke" not in sys.argv:
        test_smoke()
    print("all hedc-e2e tests passed")


if __name__ == "__main__":
    main()
