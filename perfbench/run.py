#!/usr/bin/env python3
"""Study benchmark entry point.

Builds perfbench/study_bench from the repository's sources (Release, into
.bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload matrix --seed 99 --seconds 10 --trace 0

The last line of standard output is the result object (correct, attempted,
failed, metrics). --trace 1 runs the traced mode and reports the per-layer
metrics instead of the end-to-end ones.

    python3 perfbench/run.py --smoke

is the benchmark's self-test: a few seed faults and one synthetic-corpus
seed through every workload in both modes, checking that each metric named
in BENCHMARK.json is emitted with its unit and that every pass's output
check (traced-vs-untraced identity included) passes.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "study_bench")
BASELINE = os.path.join(ROOT, "baselines", "study_baseline.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("matrix", "mine", "matrix-observed")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_tree():
    """The benchmark measures the repository's program; without its sources
    there is nothing to build."""
    for path in (os.path.join(ROOT, "src", "CMakeLists.txt"), BASELINE):
        if not os.path.isfile(path):
            fail("missing %s: run from a full checkout of the repository"
                 % os.path.relpath(path, ROOT), code=2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "study_bench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "baselines"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def bench_command(workload, seed, seconds, trace, smoke=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--baseline", BASELINE,
           "--commit", git_commit(), "--source", source_digest()]
    if smoke:
        cmd.append("--smoke")
    return cmd


def self_test():
    with open(SPEC) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # Layers each workload must exercise: their per-layer time or count
    # cannot be 0 there.
    exercised = {
        "matrix": ("apps.start.", "recovery.", "harness.trial_busy_s."),
        "mine": ("corpus.", "mining.", "core."),
        "matrix-observed": ("telemetry.", "forensics.", "analysis.oracle."),
    }
    problems = []
    for workload in WORKLOADS:
        seed = 20000625 if workload == "mine" else 99
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            known = len(problems)
            out = subprocess.run(bench_command(workload, seed, 1, trace, True),
                                 capture_output=True, text=True,
                                 timeout=RUN_TIMEOUT_S)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (label, out.returncode,
                                                     out.stderr))
                continue
            if not lines[0].startswith("run-header {"):
                problems.append(label + ": no run header")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(label + ": wrong result keys")
            if not result["correct"] or result["failed"]:
                problems.append("%s: output check failed\n%s"
                                % (label, out.stderr))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra or mis-united %s" % (
                                    label,
                                    sorted(set(expected[trace].items()) -
                                           set(got.items())),
                                    sorted(set(got.items()) -
                                           set(expected[trace].items()))))
            idle = sorted(k for k, v in result["metrics"].items()
                          if trace == 1 and v["value"] == 0 and
                          k.startswith(exercised[workload]))
            if idle:
                problems.append("%s: layers read 0: %s" % (label, idle))
            print("self-test %-26s %s"
                  % (label, "ok" if len(problems) == known else "FAILED"))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    check_tree()
    build()
    if args.smoke:
        return self_test()
    sys.stdout.flush()
    try:
        out = subprocess.run(bench_command(args.workload, args.seed,
                                           args.seconds, args.trace),
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("study_bench did not finish within %d s" % RUN_TIMEOUT_S)
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
