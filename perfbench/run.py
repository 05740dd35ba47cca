#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The Go build cache, the
benchmark binary and traced-run span files all live under .bench_build/
in the current directory, so a run reads and writes nothing outside the
checkout. Every argument is passed to the benchmark binary; its standard
output (the report, ending in one JSON line) is passed through unchanged
and its exit code is returned.
"""

import os
import subprocess
import sys

# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    pkg = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        # Keep the toolchain's config and telemetry files in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    # Freed heap is returned to the OS lazily (MADV_FREE), so memory the
    # runtime reuses is not faulted in again: page faults are what slows
    # most when the host is busy, and set-up rounds and compiles would
    # otherwise pay them again after every collection.
    env["GODEBUG"] = ",".join(filter(None, [os.environ.get("GODEBUG", ""), "madvdontneed=0"]))
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=pkg, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
