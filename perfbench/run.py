#!/usr/bin/env python3
"""Study benchmark of the rrl library.

Builds the library and the perfbench binary from this checkout into
.bench_build/, writes the workload's seeded inputs and their reference values
in one process, then measures in a second process. The measuring process
prints every metric by name with its unit; its last stdout line is the JSON
result, passed on only when its metrics and units are exactly the ones
BENCHMARK.json lists for that --trace.

    python3 perfbench/run.py --workload paper_rrl --seed 0 --seconds 30 --trace 0

Workloads: paper_rrl, eps_sweep, large_gen (perfbench/README.md says why);
--workload all runs the three one after another, one JSON line each.
Exit codes: 0 measured, 1 a build or run failed or the metrics differ from
BENCHMARK.json's list, 2 bad usage or missing sources, 3 the
phase-integrity guard failed (no numbers are published).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_rrl", "eps_sweep", "large_gen")
BUILD_TIMEOUT_S = 900
PREPARE_TIMEOUT_S = 150
# The measuring process stops starting rounds after its --seconds; this
# covers the last round, the traced rounds' replays and process exit.
MEASURE_SLACK_S = 150


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, stdout=None):
    """Run cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, stdout=stdout, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the rrl sources are missing next to perfbench/; "
             "run from a full checkout", code=2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", BENCH, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"],
               BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    if run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
           BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def listed_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this --trace."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric list of BENCHMARK.json: %s" % e)


def check_result(line, trace):
    """Fails unless the result line publishes exactly the listed metrics."""
    try:
        metrics = json.loads(line)["metrics"]
        published = {name: m["unit"] for name, m in metrics.items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        fail("the last line of the measuring process is no result: %r" % line)
    listed = listed_metrics(trace)
    if published != listed:
        fail("the result's metrics differ from BENCHMARK.json's: published "
             "%s, listed %s" % (sorted(published.items()),
                                sorted(listed.items())))


def commit():
    """HEAD when the checkout is a git work tree, else "none"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 prefix over the names and bytes the binary is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def measure(binary, workload, args):
    """Prepare and measure one workload in its own processes; returns the exit code."""
    workdir = os.path.join(ROOT, ".bench_build",
                           "run-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(args.seed),
              "--dir", workdir]
    try:
        if run([binary, "--prepare", "--bench-dir", BENCH] + common,
               PREPARE_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
            fail("preparing the inputs failed")
        done = run([binary] + common +
                   ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--commit", commit(), "--source-digest", source_digest()],
                   args.seconds + MEASURE_SLACK_S, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 1
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    check_result(lines[-1], args.trace)
    print(lines[-1])
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", code=2)

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(measure(binary, w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
