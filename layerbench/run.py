#!/usr/bin/env python3
"""Build and run the layer benchmark (see LAYERS.md).

    python3 layerbench/run.py --workload clean_h18 --seed 1 --seconds 15 --trace 0

Configures and builds layerbench/ (a CMake project that compiles the
library from ../src) into .bench_build/layerbench, or into
$CARGO_TARGET_DIR/layerbench when that is set, then runs one measurement.

Untraced runs also repeat the workload's set-up in separate processes and
report setup_s (and, where it is the peak of the cold operation,
peak_rss_mb) as the median over all set-ups, so that a cold start is
measured several times per run. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the line
before it stamps the host, the build and the source revision. The exit
status is nonzero when the build fails or any operation or check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clean_h18", "vis_h18", "sweep_event", "serve_mixed")
# Set-ups measured per untraced run: the measured run's own plus
# set-up-only processes. Each metric a set-up-only process reports
# (setup_s; peak_rss_mb where it is the peak of the cold operation) is the
# median over all of them. Cheap set-ups get more samples, because their
# relative noise is larger.
SETUP_SAMPLES = {"clean_h18": 3, "vis_h18": 5, "sweep_event": 3,
                 "serve_mixed": 9}


def log(message):
    print(f"layerbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "layerbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "layerbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(out, "layerbench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "layerbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_binary(cmd):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision()]
    if args.small:
        cmd.append("--small")
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), f"spans-{args.workload}.json")]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            code, lines = run_binary(cmd + ["--setup-only"])
            if code != 0 or not lines:
                log("set-up-only run failed")
                return 1
            setups.append(json.loads(lines[-1])["metrics"])

    code, lines = run_binary(cmd)
    if len(lines) < 2:
        log(f"benchmark printed no result (exit {code})")
        return 1
    stamp = json.loads(lines[-2])
    result = json.loads(lines[-1])
    for name in setups[0] if setups else ():
        samples = [m[name]["value"] for m in setups]
        samples.append(result["metrics"][name]["value"])
        result["metrics"][name]["value"] = statistics.median(samples)
        stamp["stamp"][f"{name}_samples"] = samples
    print(json.dumps(stamp, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
