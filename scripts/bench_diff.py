#!/usr/bin/env python3
"""Compare BENCH_*.json captures and fail on wall-second regressions.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [CURRENT.json ...]
                  [--threshold 0.10] [--min-seconds 0.001]

Rows are matched by their identity fields: everything except measured
values (fields named "seconds"/"fraction" or ending in "_seconds"/
"_fraction") and derived or run-varying outputs (booleans, and fields
mentioning "speedup", "steal", "retries", "fraction", or "per_sec" — e.g.
speedup_vs_1_thread and steals change between any two wall-clock runs and
must not break row matching). Fraction-valued measurements (e.g. the
record-overhead rows of BENCH_fig11.json, which carry no wall seconds)
are gated exactly like wall times; fields merely *mentioning* fraction
(fraction_of_vanilla, slowdown_fraction_vs_full_pool) stay derived-only.
Several CURRENT captures of the same bench are repetitions: a row's
measured field is gated on the median of its values across the captures
that carry the row (rows are those of the first capture), so one noisy
smoke run cannot flag unchanged code. For each matched row, every measured
field present on both sides is compared; a field counts as a regression
when

    current > baseline * (1 + threshold)   and   baseline >= min-seconds

(the min-seconds floor keeps sub-millisecond noise from tripping the gate).
Rows present on only one side are reported but do not fail the diff —
sweeps grow. Exit status: 0 = no regressions, 1 = at least one regression,
2 = usage or file error.

Wired into scripts/check.sh: export BENCH_BASELINE=<dir of old captures>
to gate three fresh smoke captures of each BENCH_*.json against it.
"""

import argparse
import json
import statistics
import sys


def is_measured(key):
    return (key == "seconds" or key.endswith("_seconds") or
            key == "fraction" or key.endswith("_fraction"))


# Derived metrics and outcome flags vary run to run (or follow the measured
# times); they are neither identity nor independently gated. "per_sec"
# covers throughput rates (e.g. sessions_per_sec = sessions / wall_seconds),
# which are the measured wall time seen from the other side.
DERIVED_TAGS = ("speedup", "steal", "retries", "fraction", "per_sec")


def is_derived(key, value):
    return isinstance(value, bool) or any(t in key for t in DERIVED_TAGS)


def row_key(row):
    """Identity of a row: its configuration fields, order-insensitive."""
    return tuple(sorted((k, json.dumps(v, sort_keys=True))
                        for k, v in row.items()
                        if not is_measured(k) and not is_derived(k, v)))


def fail_usage(message):
    """File/usage failure: exit 2, distinct from a regression's exit 1."""
    print(message, file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"bench_diff: cannot read {path}: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        fail_usage(f"bench_diff: {path}: not a BENCH_*.json capture")
    return doc


def describe(key):
    return ", ".join(f"{k}={json.loads(v)}" for k, v in key) or "<no key>"


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json captures.")
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+",
                        help="one or more captures (repetitions)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative wall-second slack (default 0.10)")
    parser.add_argument("--min-seconds", type=float, default=0.001,
                        help="ignore baselines below this (default 1 ms)")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cur_docs = [load(path) for path in args.current]
    cur_doc = cur_docs[0]
    for doc in cur_docs:
        if base_doc.get("bench") != doc.get("bench"):
            print(f"bench_diff: note: comparing different benches "
                  f"({base_doc.get('bench')} vs {doc.get('bench')})")
    # The repetitions' rows, by identity (first occurrence wins, as in the
    # baseline).
    repeats = []
    for doc in cur_docs[1:]:
        rows = {}
        for row in doc["rows"]:
            rows.setdefault(row_key(row), row)
        repeats.append(rows)

    base_rows = {}
    for row in base_doc["rows"]:
        base_rows.setdefault(row_key(row), row)

    regressions = []
    compared = 0
    unmatched = 0
    for row in cur_doc["rows"]:
        key = row_key(row)
        base = base_rows.pop(key, None)
        if base is None:
            unmatched += 1
            continue
        for field in row:
            if not is_measured(field) or field not in base:
                continue
            old = base[field]
            values = [r[field] for r in [row] +
                      [rows[key] for rows in repeats if key in rows]
                      if field in r]
            if not isinstance(old, (int, float)) or \
               not all(isinstance(v, (int, float)) for v in values):
                continue
            new = statistics.median(values)
            compared += 1
            if old >= args.min_seconds and new > old * (1 + args.threshold):
                regressions.append((key, field, old, new))

    for key, field, old, new in regressions:
        print(f"REGRESSION {describe(key)}: {field} "
              f"{old:.6g}s -> {new:.6g}s (+{(new / old - 1) * 100:.1f}%)")
    if unmatched or base_rows:
        print(f"bench_diff: note: {unmatched} new row(s), "
              f"{len(base_rows)} baseline row(s) without a match")
    verdict = "FAIL" if regressions else "OK"
    print(f"bench_diff: {verdict} — {compared} measurement(s) compared, "
          f"{len(regressions)} regression(s) over "
          f"{args.threshold * 100:.0f}%")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
