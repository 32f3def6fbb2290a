#!/usr/bin/env python3
"""Build the opass benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-bulk --seed 1 --seconds 20 --trace 0

The Go toolchain's caches and the binary live under .bench_build/ in the
checkout. Build output goes to standard error, so the benchmark's result is
the last line of standard output. Without the repository around this
directory the build fails and the script exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
BUILD_TIMEOUT_S = 850


def main() -> int:
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        build = subprocess.run(
            [go, "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # The benchmark replaces this process, so nothing is left to stop.
    os.chdir(ROOT)
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
