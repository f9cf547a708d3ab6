#!/usr/bin/env python3
"""CI perf-regression gate for the benchmark JSON baselines.

Compares a freshly measured benchmark JSON (bench_kernel_events ->
BENCH_kernel.json, bench_snapshot_fork -> BENCH_snapshot.json) against the
checked-in baseline at the repo root. Every throughput key — a key ending
in ``_per_sec`` — must stay at or above ``--min-ratio`` (default 0.8, i.e.
a >20% drop fails) times the baseline value. Non-throughput keys (counts,
geomeans, high-water marks) are informational and not gated, unless an
absolute floor is requested for one with ``--speedup-floor KEY=VALUE``
(repeatable): the *measured* value of KEY must then be >= VALUE. That is
how CI holds the auto-tuner to its >= 1.3x latency recovery
(``--speedup-floor autotune_latency_improvement=1.3``).

Usage:
    tools/perf_gate.py BASELINE.json MEASURED.json [--min-ratio 0.8]
        [--speedup-floor KEY=VALUE ...]

Exit status 0 when every gated key passes, 1 otherwise; a missing or
unreadable baseline or measurement fails with a one-line reason. Refresh the
baselines after an intentional perf change with tools/update_goldens.sh.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def load_or_fail(path, role):
    """The parsed JSON at ``path``, or None after printing why not."""
    try:
        return load(path)
    except FileNotFoundError:
        print(f"FAIL: {role} {path} missing")
    except (OSError, ValueError) as e:
        print(f"FAIL: {role} {path} unreadable: {e}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("measured", help="freshly measured JSON")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.8,
        help="minimum measured/baseline ratio per *_per_sec key",
    )
    parser.add_argument(
        "--speedup-floor",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="absolute floor on a measured (non-ratio) key; repeatable",
    )
    args = parser.parse_args()

    floors = []
    for spec in args.speedup_floor:
        key, sep, value = spec.partition("=")
        if not sep or not key:
            print(f"FAIL: bad --speedup-floor '{spec}', expected KEY=VALUE")
            return 1
        try:
            floors.append((key, float(value)))
        except ValueError:
            print(f"FAIL: bad --speedup-floor value in '{spec}'")
            return 1

    baseline = load_or_fail(args.baseline, "baseline")
    measured = load_or_fail(args.measured, "measured")
    if baseline is None or measured is None:
        return 1

    gated = sorted(k for k in baseline if k.endswith("_per_sec"))
    if not gated:
        print(f"FAIL: no *_per_sec keys in baseline {args.baseline}")
        return 1

    failures = 0
    for key in gated:
        if key not in measured:
            print(f"FAIL  {key}: missing from {args.measured}")
            failures += 1
            continue
        base = float(baseline[key])
        meas = float(measured[key])
        ratio = meas / base if base > 0 else float("inf")
        status = "ok  " if ratio >= args.min_ratio else "FAIL"
        print(
            f"{status}  {key}: {meas:.4g} vs baseline {base:.4g} "
            f"(ratio {ratio:.2f}, floor {args.min_ratio:.2f})"
        )
        if ratio < args.min_ratio:
            failures += 1

    floored = 0
    for key, floor in floors:
        if key not in measured:
            print(f"FAIL  {key}: missing from {args.measured}")
            failures += 1
            continue
        meas = float(measured[key])
        status = "ok  " if meas >= floor else "FAIL"
        print(f"{status}  {key}: {meas:.4g} (absolute floor {floor:.4g})")
        if meas < floor:
            failures += 1
        else:
            floored += 1

    if failures:
        print(
            f"FAIL: {failures} gated keys out of bounds "
            f"({len(gated)} ratio-gated, {len(floors)} floor-gated)"
        )
        return 1
    print(
        f"ok: all {len(gated)} throughput keys within bounds"
        + (f", {floored} absolute floors held" if floors else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
