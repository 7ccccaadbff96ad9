#!/usr/bin/env python3
"""Build and run the rsepsim repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload figs-cold --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's packages from source. Every build and run output
(Go build cache, binary, throwaway stores, span files) stays under
.bench_build/ in the current directory, and the Go toolchain is kept
offline. The exit code is the benchmark's: 0 when every output checked out,
1 when a check failed, 2 for a usage or set-up error; a failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return built.returncode
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
        return ran.returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
