#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload twin-tx --seed 1 --seconds 15 --trace 0

The last line of standard output is the run's JSON result. The exit
status is non-zero when the build fails, an output check fails or the run
times out. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/main.exe"


def main():
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib", "core"))
    ):
        print(
            "perfbench: no dune-project and lib/core here; "
            "run from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("TD_OBS", None)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "--profile", "release", TARGET],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 3
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
