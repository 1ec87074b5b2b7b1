#!/usr/bin/env python3
"""Build and run the wall-clock training benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and builds
the runtime library plus the perfbench executable (CMake, Release) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later
runs only rebuild what changed. Its standard output is passed
through unchanged, so its last line is the JSON result. With --trace 1 the
recorded spans are also written to <build dir>/traces/.

The exit status is non-zero when the build fails, when any output check
fails (the result line then reads "correct": false), or when the executable
crashes or overruns its time limit (then there is no result line).
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else Path.cwd() / d


def build(out):
    """Configure (once) and build; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    exe = out / "perfbench"
    return exe if exe.exists() else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="check that the output check rejects a mismatched oracle")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not a.self_test and (a.seed < 0 or not 0 < a.seconds <= 120):
        p.error("--seed must be >= 0 and --seconds in (0, 120]")

    out = build_dir()
    exe = build(out)
    if exe is None:
        return 2

    if a.self_test:
        cmd = [str(exe), "--self-test"]
    else:
        cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", repr(a.seconds), "--trace", str(a.trace)]
        if a.trace:
            traces = out / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench overran {RUN_TIMEOUT_S} s and was killed")
        return 3
    if code < 0:
        log(f"perfbench died with {signal.Signals(-code).name}")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
