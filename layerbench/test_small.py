#!/usr/bin/env python3
"""The layer benchmark's own tests, in small-size mode (about a minute
after the first build).

    python3 layerbench/test_small.py

Runs every workload untraced and traced at small sizes through run.py and
checks that each run verifies (the closed-form oracle, its mutant
self-check, the traced decomposition against Session, hit replay bytes
and the sampled fresh-cell comparison all run inside the benchmark and
fail it on any mismatch), that each run reports exactly the metrics
BENCHMARK.json declares, and that a run's inputs follow from its seed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed=1, seconds=1):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}"
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = 0
    inputs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            stamp, result = run(workload, trace)
            inputs.setdefault(workload, set()).add(stamp["inputs"])
            want = per_layer if trace else end_to_end
            checks = {
                "correct": result["correct"] is True,
                "no failed operations": result["failed"] == 0,
                "attempted": result["attempted"] >= 1,
                "metric names": set(result["metrics"]) == want,
                "release build": stamp["release"] is True,
            }
            for what, ok in checks.items():
                if not ok:
                    failures += 1
                    print(f"FAIL {workload} trace={trace}: {what}")
            print(f"ok   {workload} trace={trace} attempted={result['attempted']}")
    # Same seed, same inputs (traced or not); another seed, other inputs.
    for workload, seen in inputs.items():
        other = run(workload, 0, seed=2)[0]["inputs"]
        if len(seen) != 1 or other in seen:
            failures += 1
            print(f"FAIL {workload}: inputs are not a function of the seed")
    # Spans of the traced clean_h18 run were written where run.py says.
    spans = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "layerbench", "spans-clean_h18.json")
    with open(spans) as f:
        doc = json.load(f)
    names = {s["name"] for s in doc["spans"]}
    for name in ("graph.build_graph", "core.plan", "core.compile_macro_program",
                 "sim.ShardedMacroEngine.run", "session.teardown"):
        if name not in names:
            failures += 1
            print(f"FAIL clean_h18 spans: no {name}")
    print("PASS" if failures == 0 else f"{failures} FAILED")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
