#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a scilife checkout.  The build goes to the
checkout's _build directory with dune's shared cache disabled, so
nothing is written outside the checkout.  Build messages go to stderr;
the benchmark's own output (last line: the result JSON) to stdout.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "perfbench/bin/main.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./" + TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
