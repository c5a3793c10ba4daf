#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dig-graph --seed 42 --seconds 10 --trace 0

Arguments are passed to the benchmark unchanged. The build, the Go build
cache and the traced run's span files all go under .bench_build/ in the
checkout (or under $CARGO_TARGET_DIR when set), so the run writes nothing
outside the checkout. Once built, the benchmark replaces this process, so
the exit code is the benchmark's; a failed build exits non-zero without
printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOMAXPROCS": str(len(os.sched_getaffinity(0))),
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Replace this process with the benchmark, so a signal sent to the
    # command reaches the benchmark itself and no child outlives it.
    os.chdir(ROOT)
    os.execve(binary, [binary, "-spans-dir", out] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
