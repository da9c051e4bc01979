#!/usr/bin/env python3
"""Wall-time-free benchmark regression guard.

Wall-clock numbers flap with the machine; the work counters do not. The
benches emit deterministic counters (constraint evaluations, compliance
checks, survivors, ...) in their --json output — fixed repeat counts
over a fixed synthetic library make them exactly reproducible. This script
compares those counters, and the oracle flags riding along, against the
committed baselines in bench/baselines/counters.json:

    { "BENCH_candidate_filter.json": { "declarative.columnar_simd.constraint_evaluations": 3625175, ... }, ... }

Dotted keys index into the bench JSON. Any drift — more work per query, a
lost early-exit, a survivor count that drifts, an engine
disagreement — fails CI even when the wall times still look fine.

An expectation may also be a bound object instead of an exact value:

    "bytes_per_core": {"max": 200.0}        # actual <= 200.0
    "traced_sampled": {"min": 1}            # actual >= 1

Bounds are for values that are deterministic in shape but not bit-exact
across platforms (the columnar table's memory footprint depends on the
stdlib's vector growth policy) — the memory-per-core gate uses "max" so a
space regression fails CI the same way a work-counter regression does.

Usage: scripts/check_bench_counters.py [--baseline FILE] [--bench-dir DIR]
(defaults: bench/baselines/counters.json, repo root). Exit 0 iff every
counter matches exactly.
"""

import argparse
import json
import os
import sys


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="bench/baselines/counters.json")
    parser.add_argument("--bench-dir", default=".")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baselines = json.load(f)

    failures = []
    checked = 0
    for bench_file, expectations in sorted(baselines.items()):
        path = os.path.join(args.bench_dir, bench_file)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as err:
            failures.append(f"{bench_file}: cannot read ({err})")
            continue
        for dotted, expected in sorted(expectations.items()):
            checked += 1
            try:
                actual = lookup(doc, dotted)
            except KeyError:
                failures.append(f"{bench_file}: {dotted} missing from bench output")
                continue
            if isinstance(expected, dict):
                if "max" in expected and not actual <= expected["max"]:
                    failures.append(
                        f"{bench_file}: {dotted} = {actual!r}, exceeds max {expected['max']!r}"
                    )
                if "min" in expected and not actual >= expected["min"]:
                    failures.append(
                        f"{bench_file}: {dotted} = {actual!r}, below min {expected['min']!r}"
                    )
                if not ("max" in expected or "min" in expected):
                    failures.append(f"{bench_file}: {dotted} baseline bound has no min/max")
            elif actual != expected:
                failures.append(
                    f"{bench_file}: {dotted} = {actual!r}, baseline {expected!r}"
                )

    if failures:
        print(f"bench counter guard: {len(failures)} mismatch(es) in {checked} checks")
        for failure in failures:
            print(f"  FAIL {failure}")
        print("If the change in work is intentional, refresh bench/baselines/counters.json.")
        return 1
    print(f"bench counter guard: {checked} counters match the baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
