#!/usr/bin/env python3
"""Build the time-to-tolerance benchmark from source and run one workload.

    python3 e2ebench/run.py --workload parabolic-1m --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The benchmark is configured and
built (Release) under $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench; later runs only re-check the build. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
--trace 1 also writes the recorded spans to <build>/spans/.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build(bdir):
    """Configure once, then build the e2e_bench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to "
                 "e2ebench/; run from a full source checkout")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "e2e_bench",
                    "-j", "3"], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "e2e_bench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    child = subprocess.Popen(cmd)
    stopped = []

    def stop(signum, _frame):
        # Do not leave the benchmark running when this wrapper is stopped.
        # The wait below reaps it; waiting here would deadlock on Popen's
        # wait lock, which the interrupted wait holds.
        stopped.append(signum)
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    return 128 + stopped[0] if stopped else code


if __name__ == "__main__":
    sys.exit(main())
