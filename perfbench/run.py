#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace picks the executable and is not passed on: 0 runs perfbench/main.exe
(end-to-end metrics), 1 runs perfbench/traced.exe (per-layer metrics).  The
other arguments go to the executable unchanged.  Build output goes to
stderr; the benchmark's result is the last line of stdout.  The exit code is
non-zero, with no result printed, when the arguments, the build or the run
fail.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = sys.argv[1:]
    if "--trace" not in argv:
        print("perfbench: --trace 0|1 is required", file=sys.stderr)
        return 2
    k = argv.index("--trace")
    trace = argv[k + 1] if k + 1 < len(argv) else None
    if trace not in ("0", "1"):
        print("perfbench: --trace must be 0 or 1", file=sys.stderr)
        return 2
    exe = "traced.exe" if trace == "1" else "main.exe"
    argv = argv[:k] + argv[k + 2:]
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/" + exe],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([os.path.join(root, "_build", "default", "perfbench", exe)] + argv,
                         cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
