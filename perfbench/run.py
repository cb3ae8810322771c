#!/usr/bin/env python3
"""Builds the simulator and the benchmark harness from source, then runs
one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Build output
goes to stderr, so the harness's result line stays the last line of
stdout. Exits nonzero without a result if either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args):
    """Runs one offline release build; exits with its code on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build(["-p", "ndp-bench", "--bin", "ndpsim"])
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    harness = os.path.join(release, "ndp-perfbench")
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    cmd = [harness] + sys.argv[1:] + ["--ndpsim", os.path.join(release, "ndpsim"), "--work", work]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
