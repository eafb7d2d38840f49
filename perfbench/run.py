#!/usr/bin/env python3
"""Build and run the repository benchmark described in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload dfz-steady --seed 1 --seconds 20 --trace 0

The script builds perfbench/main.exe with dune, then runs it with the same
arguments. The benchmark's last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; its exit code is
non-zero when the output check fails. Build output goes to standard error.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        sys.stderr.write(
            "perfbench: no dune-project and lib/ here; run from the repository root\n"
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
