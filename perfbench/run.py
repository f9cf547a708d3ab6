#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig11_steady --seed 1 --seconds 20 --trace 0

Every argument is passed to the driver (see perfbench/README.md). The driver
is configured and built under $CARGO_TARGET_DIR (default .bench_build) with
the repository's default optimised build type; build output goes to stderr,
so the last line of stdout is the driver's JSON result. The reference
digests in perfbench/digests.txt are checked, and traced runs write their
spans next to the build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path or None."""
    out = build_dir()
    steps = []
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def driver_args(argv, out_dir):
    """The caller's arguments plus the reference digests and a spans file."""
    args = list(argv)
    if "--digests" not in args:
        args += ["--digests", os.path.join(HERE, "digests.txt")]
    if "--spans" not in args:
        name = "run"
        if "--workload" in args and args.index("--workload") + 1 < len(args):
            name = args[args.index("--workload") + 1]
        args += ["--spans", os.path.join(out_dir, f"spans_{name}.json")]
    return args


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    cmd = [binary] + driver_args(sys.argv[1:], os.path.dirname(binary))
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
