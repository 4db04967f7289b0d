#!/usr/bin/env python3
"""Builds `honeylab` and `honeybench` from this checkout, then runs
`honeybench` with the given arguments from the checkout root.

    python3 honeybench/run.py --workload parked_trickle --seed 1 --seconds 15 --trace 0

Build artifacts go to $CARGO_TARGET_DIR (default `.bench_build`). Exits
non-zero without printing a result when the sources are missing or a
build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        print("honeybench: honeylab sources (Cargo.toml, crates/) not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = (
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "honeylab"],
        ["--manifest-path", os.path.join(ROOT, "honeybench", "Cargo.toml")],
    )
    for args in builds:
        cmd = ["cargo", "build", "--release", "--locked", "--offline", "--quiet"] + args
        # Cargo's output belongs on stderr: stdout ends with the result line.
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if code != 0:
            print("honeybench: build failed: " + " ".join(cmd), file=sys.stderr)
            return code
    exe = os.path.join(target, "release", "honeybench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
