#!/usr/bin/env python3
"""Builds `hq` and the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Build outputs go to $CARGO_TARGET_DIR
(default `.bench_build`), generated inputs and span dumps to `.bench_work`.
The last line of standard output is the JSON result; build output goes to
standard error.
"""

import os
import subprocess
import sys

BUILDS = [
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", "Cargo.toml", "-p", "hq-cli"],
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in BUILDS:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--hq", os.path.join(release, "hq")]
    sys.exit(subprocess.run(bench).returncode)


if __name__ == "__main__":
    main()
