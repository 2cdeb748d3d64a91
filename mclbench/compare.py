#!/usr/bin/env python3
"""Compares two sets of mclbench run documents: A (parent) and B (change).

    python3 mclbench/compare.py A_DIR B_DIR
    python3 mclbench/compare.py --self-test [DIR ...]

A_DIR and B_DIR hold the JSON documents `mclbench --out DIR` writes (run
mode; traced --layers documents are skipped). Runs pair up by seed, so run
the two sides interleaved (A B A B ...) with the same seeds. For every
workload x end-to-end metric the table gives each side's median and
quartiles, the fraction of pairs B won (ties count for neither), and a
verdict:

  improved      at least ten pairs, B won at least 9/10 of them and the
                medians differ by more than A's interquartile range;
  unresolved    the run-to-run spread (IQR / median, either side) is wider
                than the metric's bound, and not every B run beats every
                A run;
  regressed     B's median is worse than A's by more than the bound; for
                fail_frac (bound 0) any increase of the worst run;
  within bound  otherwise.

Exits 1 when any pairing regressed. --self-test checks the rules on the
runs of the DIRs together (default: baseline/A and baseline/B beside this
script, else synthetic runs): the set compared with itself reports no
change, and a set shifted past the bound reports a regression (and the
opposite shift an improvement).
"""

# choosing-metrics section 8: a gain rests on at least ten pairs. With five,
# one commit against itself wins 5/5 on a near-constant metric by chance.
MIN_PAIRS_FOR_GAIN = 10
import copy
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: [doc, ...]} of the run-mode documents, ordered by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if doc.get("mode") == "run":
            runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["provenance"]["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """(verdict, fraction of pairs B won) for one metric's two run lists."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x worse
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) < 0) / max(len(pairs), 1)
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    if bound == 0:
        worst = max if better == "lower" else min
        return ("regressed" if sign * (worst(b) - worst(a)) > 0
                else "within bound"), won
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and won >= 0.9 and
            sign * (med_b - med_a) < 0 and abs(med_b - med_a) > q3a - q1a):
        return "improved", won
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", won
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else sign * med_b
    return ("regressed" if worse > bound else "within bound"), won


def compare(runs_a, runs_b):
    """Rows of (workload, metric, unit, A values, B values, verdict, won)."""
    rows = []
    for workload in sorted(set(runs_a) & set(runs_b)):
        docs_a, docs_b = runs_a[workload], runs_b[workload]
        for name, meta in docs_a[0]["end_to_end"].items():
            a = [d["end_to_end"][name]["value"] for d in docs_a
                 if name in d["end_to_end"]]
            b = [d["end_to_end"][name]["value"] for d in docs_b
                 if name in d["end_to_end"]]
            if not a or not b:
                continue
            v, won = verdict(a, b, meta["better"], meta["bound"])
            rows.append((workload, name, meta["unit"], a, b, v, won))
    return rows


def print_rows(rows):
    def side(values):
        q1, med, q3 = quartiles(values)
        return "%.6g [%.6g, %.6g]" % (med, q1, q3)

    print("%-14s %-22s %-36s %-36s %5s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "won", "verdict"))
    for workload, name, unit, a, b, v, won in rows:
        print("%-14s %-22s %-36s %-36s %5.2f  %s" %
              (workload, name + " (" + unit + ")", side(a), side(b), won, v))


def synthetic_runs():
    """Ten runs of two workloads with a deterministic +-1% wobble."""
    runs = {}
    for workload in ("launch_small", "serve_open"):
        docs = []
        for seed in range(1, 11):
            wobble = 1.0 + ((seed * 37) % 11 - 5) / 500.0
            docs.append({
                "mode": "run", "workload": workload, "provenance": {"seed": seed},
                "end_to_end": {
                    "latency_p50_us": {"value": 25.0 * wobble, "unit": "us",
                                       "better": "lower", "bound": 0.1},
                    "ops_per_s": {"value": 40000.0 / wobble, "unit": "ops/s",
                                  "better": "higher", "bound": 0.1},
                    "fail_frac": {"value": 0.0, "unit": "ratio",
                                  "better": "lower", "bound": 0.0},
                }})
        runs[workload] = docs
    return runs


def scaled(runs, metric, factor):
    out = copy.deepcopy(runs)
    for docs in out.values():
        for d in docs:
            d["end_to_end"][metric]["value"] *= factor
    return out


def self_test(directories):
    runs = {}
    for directory in directories:
        if os.path.isdir(directory):
            for workload, docs in load(directory).items():
                runs.setdefault(workload, []).extend(docs)
    source = " + ".join(directories) if runs else "synthetic runs"
    if not runs:
        runs = synthetic_runs()
    failures = []
    for row in compare(runs, runs):
        if row[5] not in ("within bound", "unresolved"):
            failures.append("self-compare %s %s: %s" % (row[0], row[1], row[5]))
    for factor, expected in ((1.5, "regressed"), (0.5, "improved")):
        for row in compare(runs, scaled(runs, "latency_p50_us", factor)):
            if row[1] == "latency_p50_us" and row[5] != expected:
                failures.append("latency x%g %s: %s, expected %s" %
                                (factor, row[0], row[5], expected))
    for f in failures:
        print("compare.py self-test FAILED: " + f)
    if not failures:
        print("compare.py self-test passed on %s (%d workloads)" %
              (source, len(runs)))
    return 1 if failures else 0


def main(argv):
    if argv and argv[0] == "--self-test":
        default = [os.path.join(HERE, "baseline", side) for side in "AB"]
        return self_test(argv[1:] or default)
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    runs_a, runs_b = load(argv[0]), load(argv[1])
    if not runs_a or not runs_b:
        sys.stderr.write("compare.py: no run documents in %s\n" %
                         (argv[0] if not runs_a else argv[1]))
        return 2
    rows = compare(runs_a, runs_b)
    print_rows(rows)
    return 1 if any(row[5] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
