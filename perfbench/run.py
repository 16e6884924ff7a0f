#!/usr/bin/env python3
"""Builds the benchmark and the `tcor-sim` daemon from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload suite|curves|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. Both builds go to
$CARGO_TARGET_DIR (default `.bench_build`). The last line of standard
output is the result; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "sim", "Cargo.toml"),
                   os.path.join("results", "golden"),
                   os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} is missing; run from the root of a "
                  "source checkout", file=sys.stderr)
            return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tcor-sim"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        done = subprocess.run(cmd, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: `{' '.join(cmd)}` failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "tcor-perfbench")
    sim = os.path.join(release, "tcor-sim")
    sys.stdout.flush()
    os.execv(bench, [bench, *sys.argv[1:], "--tcor-sim", sim])
    return 1


if __name__ == "__main__":
    sys.exit(main())
