#!/usr/bin/env python3
"""bench_e2e_smoke: checks the runner's statistics and bound helpers, then
drives the whole pipeline on the --smoke preset (run.py for two seeds,
compare.py on the two results, and compare.py's host check).

    python3 bench/e2e/smoke_test.py --binary BUILD/bench_e2e --work DIR
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_helpers():
    check(run.median([3.0, 1.0, 2.0]) == 2.0, "median of three")
    check(run.median([]) == 0.0, "median of nothing")
    v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    check(run.quartiles(v) == (q1, q2, q3), "quartiles follow statistics.quantiles")
    check(abs(run.spread(v) - (q3 - q1) / q2) < 1e-12, "spread is IQR over median")
    check(run.worse_by(10.0, 11.0, "lower") > 0, "slower is worse")
    check(run.worse_by(10.0, 11.0, "higher") < 0, "more throughput is better")
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    check(compare.label(base, [x * 0.8 for x in base], "lower", 0.1) == "improved", "improved")
    check(compare.label(base, [x * 1.2 for x in base], "lower", 0.1) == "worse", "worse")
    check(compare.label(base, [x * 1.01 for x in base], "lower", 0.1) == "unchanged",
          "unchanged")
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    check(compare.label(noisy, [x * 1.02 for x in noisy], "lower", 0.1) == "unresolved",
          "spread wider than the bound is unresolved")
    check(compare.label(base, [x * 1.2 for x in base], "higher", 0.1) == "improved",
          "higher-is-better metrics")


def run_smoke(binary, work, seed):
    out = work / ("smoke_%d.json" % seed)
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed), "--seconds",
           "3", "--binary", str(binary), "--build-dir", str(work), "--out", str(out)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(r.stdout)
    check(r.returncode == 0, "run.py exit %d: %s" % (r.returncode, r.stderr))
    last = json.loads(r.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, "result line keys")
    check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 2, "smoke ops ok")
    names = [m["name"] for m in json.loads(run.BENCHMARK.read_text())["end_to_end"]]
    for w in run.SMOKE_WORKLOADS:
        for m in names:
            got = last["metrics"].get("%s.%s" % (w, m))
            check(got is not None and got["value"] > 0, "%s.%s reported and nonzero" % (w, m))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    test_helpers()
    a = run_smoke(args.binary, args.work, 1)
    b = run_smoke(args.binary, args.work, 2)

    r = subprocess.run([sys.executable, str(HERE / "compare.py"), "--base", str(a), "--new",
                        str(b)], capture_output=True, text=True)
    sys.stdout.write(r.stdout)
    check(r.returncode in (0, 1), "compare.py exit %d: %s" % (r.returncode, r.stderr))
    rows = [l for l in r.stdout.splitlines() if l.split()[:1] and
            l.split()[0] in run.SMOKE_WORKLOADS]
    metrics = json.loads(run.BENCHMARK.read_text())["end_to_end"]
    check(len(rows) == len(run.SMOKE_WORKLOADS) * len(metrics),
          "one row per workload x end-to-end metric")

    other = json.loads(b.read_text())
    other["machine"]["hw_threads"] = -1
    c = args.work / "smoke_other_host.json"
    c.write_text(json.dumps(other))
    r = subprocess.run([sys.executable, str(HERE / "compare.py"), "--base", str(a), "--new",
                        str(c)], capture_output=True, text=True)
    check(r.returncode == 2 and "hw_threads" in r.stderr, "different hosts are refused")
    print("bench_e2e_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
