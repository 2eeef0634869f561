#!/usr/bin/env python3
"""Contract tests for scripts/bench_diff.py, run as a ctest entry.

Feeds crafted BENCH_*.json pairs (and repeated current captures) through
the real CLI and asserts the documented exit codes: 0 = clean
(improvements, new/unmatched rows, sub-threshold noise and a single
outlier repetition included), 1 = at least one wall-second regression over
the threshold, 2 = usage or file error (missing file, malformed JSON, not
a capture).

Usage: bench_diff_test.py /path/to/bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile


def write(dirname, name, doc):
    path = os.path.join(dirname, name)
    with open(path, "w") as f:
        if isinstance(doc, str):
            f.write(doc)
        else:
            json.dump(doc, f)
    return path


def capture(rows, bench="t"):
    return {"bench": bench, "smoke": True, "rows": rows}


def run(bench_diff, *args):
    proc = subprocess.run([sys.executable, bench_diff, *args],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode, proc.stdout


def main():
    if len(sys.argv) != 2:
        print("usage: bench_diff_test.py /path/to/bench_diff.py")
        return 1
    bench_diff = sys.argv[1]
    failures = []

    def expect(name, got, want, output):
        if got != want:
            failures.append(f"{name}: exit {got}, want {want}\n{output}")
        else:
            print(f"ok: {name} (exit {got})")

    with tempfile.TemporaryDirectory(prefix="bench_diff_test") as tmp:
        row = {"workload": "RTE", "shards": 1, "seconds": 1.0}

        # Identical captures: clean.
        base = write(tmp, "base.json", capture([row]))
        same = write(tmp, "same.json", capture([row]))
        code, out = run(bench_diff, base, same)
        expect("identical", code, 0, out)

        # >10% wall-second regression: exit 1.
        slow = write(tmp, "slow.json",
                     capture([{**row, "seconds": 1.2}]))
        code, out = run(bench_diff, base, slow)
        expect("regression", code, 1, out)
        if "REGRESSION" not in out:
            failures.append(f"regression: missing REGRESSION line\n{out}")

        # Within threshold: clean.
        close = write(tmp, "close.json",
                      capture([{**row, "seconds": 1.05}]))
        code, out = run(bench_diff, base, close)
        expect("within-threshold", code, 0, out)

        # Improvement: clean.
        fast = write(tmp, "fast.json",
                     capture([{**row, "seconds": 0.5}]))
        code, out = run(bench_diff, base, fast)
        expect("improvement", code, 0, out)

        # Sub-min-seconds baseline: noise, never a regression.
        tiny_base = write(tmp, "tiny_base.json",
                          capture([{**row, "seconds": 0.0002}]))
        tiny_slow = write(tmp, "tiny_slow.json",
                          capture([{**row, "seconds": 0.0009}]))
        code, out = run(bench_diff, tiny_base, tiny_slow)
        expect("sub-min-seconds", code, 0, out)

        # Rows present on only one side (sweeps grow/shrink): reported,
        # not failed.
        grown = write(tmp, "grown.json", capture([
            {**row, "seconds": 1.0},
            {"workload": "CoLA", "shards": 4, "seconds": 2.0},
        ]))
        code, out = run(bench_diff, base, grown)
        expect("missing-row", code, 0, out)
        if "without a match" not in out and "new row" not in out:
            failures.append(f"missing-row: unmatched rows not noted\n{out}")

        # Derived fields (speedup, steals, retries) must not break row
        # identity: same config, different derived values, slower seconds
        # -> still matched, still a regression.
        base_derived = write(tmp, "base_derived.json", capture(
            [{**row, "speedup_vs_1_thread": 3.9, "steals": 2,
              "seconds": 1.0}]))
        cur_derived = write(tmp, "cur_derived.json", capture(
            [{**row, "speedup_vs_1_thread": 2.1, "steals": 7,
              "seconds": 1.5}]))
        code, out = run(bench_diff, base_derived, cur_derived)
        expect("derived-fields-regression", code, 1, out)

        # Fraction-valued measurements (record-overhead rows carry no wall
        # seconds) are gated like wall times: a >threshold increase fails...
        frac_row = {"workload": "RTE", "config": "group_commit",
                    "overhead_fraction": 0.010}
        frac_base = write(tmp, "frac_base.json", capture([frac_row]))
        frac_slow = write(tmp, "frac_slow.json", capture(
            [{**frac_row, "overhead_fraction": 0.015}]))
        code, out = run(bench_diff, frac_base, frac_slow)
        expect("fraction-regression", code, 1, out)

        # ...an improvement or within-threshold drift stays clean...
        frac_fast = write(tmp, "frac_fast.json", capture(
            [{**frac_row, "overhead_fraction": 0.004}]))
        code, out = run(bench_diff, frac_base, frac_fast)
        expect("fraction-improvement", code, 0, out)

        # ...and a changed fraction must not break row identity (it is a
        # measurement, not a config field): the same row's seconds still
        # match and gate.
        frac_sec_base = write(tmp, "frac_sec_base.json", capture(
            [{**frac_row, "record_seconds": 1.0}]))
        frac_sec_cur = write(tmp, "frac_sec_cur.json", capture(
            [{**frac_row, "overhead_fraction": 0.02, "record_seconds": 1.5}]))
        code, out = run(bench_diff, frac_sec_base, frac_sec_cur)
        expect("fraction-not-identity", code, 1, out)

        # Derived fraction *mentions* (fraction_of_vanilla) are still
        # neither identity nor gated: a big change alone stays clean.
        dfrac_base = write(tmp, "dfrac_base.json", capture(
            [{**row, "fraction_of_vanilla": 0.25}]))
        dfrac_cur = write(tmp, "dfrac_cur.json", capture(
            [{**row, "fraction_of_vanilla": 0.90}]))
        code, out = run(bench_diff, dfrac_base, dfrac_cur)
        expect("derived-fraction-ignored", code, 0, out)

        # Repeated captures gate on the median: an outlier in one of three
        # captures does not flag...
        rep_ok = write(tmp, "rep_ok.json", capture([{**row, "seconds": 1.0}]))
        rep_out = write(tmp, "rep_out.json",
                        capture([{**row, "seconds": 1.45}]))
        rep_fine = write(tmp, "rep_fine.json",
                         capture([{**row, "seconds": 0.98}]))
        code, out = run(bench_diff, base, rep_out, rep_ok, rep_fine)
        expect("outlier-in-one-of-three", code, 0, out)

        # ...a 20% regression in all three does...
        reps = [write(tmp, f"rep_slow{i}.json",
                      capture([{**row, "seconds": s}]))
                for i, s in enumerate((1.19, 1.2, 1.21))]
        code, out = run(bench_diff, base, *reps)
        expect("regression-in-all-three", code, 1, out)
        if "1.2s" not in out:
            failures.append(f"regression-in-all-three: median not "
                            f"reported\n{out}")

        # ...and a row missing from a repetition gates on the others.
        rep_empty = write(tmp, "rep_empty.json", capture([]))
        code, out = run(bench_diff, base, reps[0], rep_empty, reps[2])
        expect("row-missing-from-a-repetition", code, 1, out)

        # Malformed JSON: exit 2.
        broken = write(tmp, "broken.json", "{not json")
        code, out = run(bench_diff, base, broken)
        expect("malformed-current", code, 2, out)
        code, out = run(bench_diff, broken, same)
        expect("malformed-baseline", code, 2, out)

        # Valid JSON but not a capture: exit 2.
        notcap = write(tmp, "notcap.json", {"rows": "nope"})
        code, out = run(bench_diff, base, notcap)
        expect("not-a-capture", code, 2, out)

        # Missing file: exit 2.
        code, out = run(bench_diff, base,
                        os.path.join(tmp, "absent.json"))
        expect("missing-file", code, 2, out)

    if failures:
        print("\n".join(["FAILURES:"] + failures))
        return 1
    print("bench_diff_test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
