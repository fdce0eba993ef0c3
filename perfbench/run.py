#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench_runner (the library compiled from this checkout's sources) under
$CARGO_TARGET_DIR, default .bench_build; later runs reuse the build. The
workload then runs in a process of its own, so its peak RSS is its own.

With --trace 0 the result holds the end-to-end metrics (us_per_request,
setup_s, peak_rss_mb); with --trace 1 the per-layer metrics of the traced
run, whose spans are written to .bench_out/. At the default seed the
digest of the simulated statistics must match the one pinned in
manifest.json; any mismatch or failed output check fails the run's
requests, so error_share = failed / attempted.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_runner():
    """Configures (once) and builds perfbench_runner; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no library sources under {ROOT}: run from a full checkout")
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build / "perfbench_runner"


def report_tail(samples):
    """Prints the median and the highest percentile with at least ten calls
    beyond it, with the call count."""
    ordered = sorted(samples)
    n = len(ordered)
    line = f"us_per_request median {statistics.median(ordered):.4f}"
    if n > 10:
        pct = 100 * (n - 10) // n
        line += f", p{pct} {ordered[math.ceil(pct * n / 100) - 1]:.4f}"
    print(f"perfbench: {line} over {n} calls", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in manifest["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    runner = build_runner()

    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    # Its own process group, so a timeout also stops the set-up child that
    # journal_replay forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    run = json.loads(stdout.strip().splitlines()[-1])

    failed = run["failed"]
    for error in run["errors"]:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    pinned = manifest["digests"].get(args.workload)
    if args.seed == manifest["default_seed"] and run["digest"] != pinned:
        print(f"perfbench: {args.workload}: simulated statistics digest "
              f"{run['digest']} != pinned {pinned}", file=sys.stderr)
        failed = run["attempted"]
    for note in run["notes"]:
        print(f"perfbench: note: {note}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {run['calls']} calls "
          f"of {run['requests_per_call']} requests, digest {run['digest']}",
          file=sys.stderr)
    if not args.trace:
        report_tail(run["samples"])

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": run["metrics"],
    }))


if __name__ == "__main__":
    main()
