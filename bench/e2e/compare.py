#!/usr/bin/env python3
"""Compare two sets of bench/e2e results.

    python3 bench/e2e/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is one `run.py --out` document: one seed, one workload or the whole
suite. For every workload x end-to-end metric this prints each side's median
and quartiles and a label, as bench/e2e/README.md ("Comparing two commits")
describes:

  improved    over at least 10 pairs (run i of each side; ties count for
              neither) the new side wins at least 9 in 10, and the medians
              differ by more than the base side's interquartile distance;
  worse       the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the base side's spread (IQR / median) is wider than the bound
              and not every new run beats every base run;
  unchanged   otherwise.

A gain does not count when more ops failed on the new side. Results taken on
hosts with different machine.hw_threads are refused.
Exit status: 0, 1 if a metric is worse or more ops failed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BENCHMARK, median, quartiles, spread, worse_by  # noqa: E402


def label(base, new, better, bound):
    """Label one workload x metric from the per-run values of both sides."""
    pairs = list(zip(base, new))
    wins = sum(worse_by(b, n, better) < 0 for b, n in pairs)
    q1, bmed, q3 = quartiles(base)
    nmed = median(new)
    d = worse_by(bmed, nmed, better)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and d < 0 and abs(nmed - bmed) > q3 - q1:
        return "improved"
    if d > bound:
        return "worse"
    all_better = all(worse_by(b, n, better) < 0 for b in base for n in new)
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load(paths):
    docs = []
    for p in paths:
        doc = json.loads(Path(p).read_text())
        if doc.get("schema") != "bench_e2e.result.v1" or doc.get("trace"):
            raise ValueError("%s is not a timed bench_e2e result" % p)
        docs.append(doc)
    return docs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="result files of the base commit")
    ap.add_argument("--new", nargs="+", required=True, help="result files of the new commit")
    args = ap.parse_args(argv)
    try:
        base, new = load(args.base), load(args.new)
    except (OSError, ValueError) as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 2
    hosts = {d["machine"].get("hw_threads") for d in base + new}
    if len(hosts) != 1:
        print("compare.py: refusing to compare results from hosts with different "
              "hw_threads: %s" % sorted(hosts, key=str), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    # Per workload, its runs on each side in seed order (a file may hold one
    # workload or the whole suite).
    runs = [{}, {}]
    for side, docs in zip(runs, (base, new)):
        for d in sorted(docs, key=lambda d: d["seed"]):
            for w, r in d["workloads"].items():
                side.setdefault(w, []).append(r)
    workloads = sorted(set(runs[0]) & set(runs[1]))
    if not workloads:
        print("compare.py: no workload is on both sides", file=sys.stderr)
        return 2

    status = 0
    print("%-18s %-12s %30s %30s %8s  %s" % ("workload", "metric", "base median [q1, q3]",
                                             "new median [q1, q3]", "change", "label"))
    for w in workloads:
        failed = [sum(r["failed"] for r in side[w]) for side in runs]
        for m in metrics:
            b = [r["metrics"][m["name"]] for r in runs[0][w]]
            n = [r["metrics"][m["name"]] for r in runs[1][w]]
            lab = label(b, n, m["better"], m["bound"])
            if lab == "improved" and failed[1] > failed[0]:
                lab = "unchanged (more ops failed)"
            if lab == "worse":
                status = 1
            bq, nq = quartiles(b), quartiles(n)
            print("%-18s %-12s %12.5g [%.5g, %.5g] %12.5g [%.5g, %.5g] %+7.1f%%  %s" % (
                w, m["name"], bq[1], bq[0], bq[2], nq[1], nq[0], nq[2],
                100.0 * (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0, lab))
        if failed[1] > failed[0]:
            print("%-18s failed ops: base %d, new %d" % (w, failed[0], failed[1]))
            status = 1
    print("runs: base %d, new %d; bounds from %s" % (len(base), len(new), BENCHMARK.name))
    return status


if __name__ == "__main__":
    sys.exit(main())
