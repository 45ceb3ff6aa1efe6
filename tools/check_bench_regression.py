#!/usr/bin/env python3
"""Bench perf-regression gate: compare RUNREPORT_*.json artifacts to baselines.

Reads pairs of `dftfe.runreport.v1` RunReports (the one artifact every bench
binary writes via bench::emit_bench_artifact) and fails when a wall-time
gauge regressed past the threshold. This is the checker behind the
`bench-regression` CI job; the committed reference files live in
bench/baselines/.

What is compared
  * Every gauge whose key ends in `wall_s` (per-benchmark wall times:
    `bench.kernels.<name>.wall_s`, `ablation_async.sync_wall_s`, ...).
    Lower is better; FAIL when  current > baseline * threshold.
  * Entries whose *baseline* wall is below --min-seconds (default 1 ms) are
    skipped: micro-entries are timer-noise-bound and would make the gate
    flaky (the underlying kernels are covered by the larger entries).
  * Keys present in the baseline but missing from the current run FAIL
    (a silently dropped benchmark is itself a regression); new keys only
    present in the current run are reported and pass — refresh the baseline
    to start tracking them.

Machine normalization
  Committed baselines are rarely recorded on the exact machine class that
  CI runs on. Each artifact carries `machine.peak_gflops`, the host's best
  sustained GEMM throughput measured by the same build (bench_common.hpp).
  With --normalize peak (what CI uses), wall times are compared as
  machine-independent "work" units  wall * peak_gflops, which cancels a
  uniform host speed difference while still catching real slowdowns of the
  code. With --normalize none, raw seconds are compared (use when baseline
  and current come from the same machine). A pair whose
  `machine.hw_threads` differ is refused (exit 2), as bench/e2e/compare.py
  refuses one: thread-parallel walls do not scale with the GEMM peak. So is
  a pair whose `machine.simd_bits` differ: the GEMM kernel is picked per ISA
  at run time, so hosts of another vector width run other kernels.

Floors
  --min-gauge KEY=VALUE asserts a non-time gauge is at least VALUE (e.g.
  `ablation_async.speedup=1.15`, the measured async-overlap acceptance
  gate). Machine normalization does not apply; ratios are dimensionless.

Attribution
  When a wall-time gauge of a pair regresses, the checker runs
  tools/report_diff.py on that same pair and appends the top-3 regressed
  spans to the failure message, so the CI log answers *where* the time went,
  not just that it went.

Usage
  check_bench_regression.py [options] BASELINE=CURRENT [BASELINE=CURRENT...]
  check_bench_regression.py --threshold 1.10 \
      bench/baselines/RUNREPORT_kernels.json=build/bench/RUNREPORT_kernels.json \
      bench/baselines/RUNREPORT_scf_scaling.json=build/bench/RUNREPORT_scf_scaling.json \
      --min-gauge ablation_async.speedup=1.15

Exit status: 0 clean, 1 regression or floor violation, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SCHEMA = "dftfe.runreport.v1"


def load_gauges(path: Path) -> dict[str, float]:
    try:
        with path.open() as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != SCHEMA:
        print(f"error: {path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}",
              file=sys.stderr)
        sys.exit(2)
    gauges = doc.get("gauges", {})
    return {k: float(v) for k, v in gauges.items()}


def compare_pair(base: dict[str, float], cur: dict[str, float], threshold: float,
                 min_seconds: float, normalize: str) -> list[str]:
    scale = 1.0  # multiplies *current* walls to express them in baseline-host seconds
    if normalize == "peak":
        bp, cp = base.get("machine.peak_gflops"), cur.get("machine.peak_gflops")
        if bp and cp:
            scale = cp / bp
            print(f"  normalization: baseline peak {bp:.2f} GFLOPS, "
                  f"current {cp:.2f} GFLOPS -> scale x{scale:.3f}")
        else:
            print("  normalization: machine.peak_gflops missing, comparing raw seconds")

    failures: list[str] = []
    keys = sorted(k for k in base if k.endswith("wall_s"))
    compared = skipped = 0
    for key in keys:
        ref = base[key]
        if ref < min_seconds:
            skipped += 1
            continue
        if key not in cur:
            failures.append(f"{key}: present in baseline but missing from current run")
            continue
        now = cur[key] * scale
        ratio = now / ref if ref > 0 else float("inf")
        compared += 1
        verdict = "ok"
        if now > ref * threshold:
            verdict = "REGRESSION"
            failures.append(f"{key}: {ref:.6f}s -> {now:.6f}s "
                            f"(x{ratio:.3f} > allowed x{threshold:.2f})")
        print(f"  {key}: base {ref:.6f}s cur {now:.6f}s x{ratio:.3f} [{verdict}]")
    new_keys = sorted(k for k in cur if k.endswith("wall_s") and k not in base)
    for key in new_keys:
        print(f"  {key}: new entry ({cur[key]:.6f}s), not in baseline — refresh baselines")
    print(f"  {compared} compared, {skipped} skipped (baseline < {min_seconds * 1e3:.1f} ms), "
          f"{len(new_keys)} new")
    return failures


def attribute_regression(base_path: Path, cur_path: Path, normalize: str) -> list[str]:
    """Run tools/report_diff.py on one regressed pair, echo its output, and
    return the TOP-SPAN attribution lines for the failure summary."""
    differ = Path(__file__).resolve().parent / "report_diff.py"
    print(f"\nattributing via report_diff: {cur_path} vs {base_path}")
    proc = subprocess.run(
        [sys.executable, str(differ), str(base_path), str(cur_path), "--top", "3",
         "--normalize", normalize],
        capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        return []
    return [f"{cur_path.name}: {line.strip()}" for line in proc.stdout.splitlines()
            if line.lstrip().startswith("TOP-SPAN")]


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Fail when bench wall times regressed vs committed baselines.")
    ap.add_argument("pairs", nargs="+", metavar="BASELINE=CURRENT",
                    help="baseline and current RUNREPORT_*.json, '=' separated")
    ap.add_argument("--threshold", type=float, default=1.10,
                    help="allowed current/baseline wall ratio (default 1.10 = +10%%)")
    ap.add_argument("--min-seconds", type=float, default=1e-3,
                    help="skip entries whose baseline wall is below this (default 1e-3)")
    ap.add_argument("--normalize", choices=["peak", "none"], default="peak",
                    help="scale current walls by the hosts' calibrated GEMM peaks "
                         "(default: peak)")
    ap.add_argument("--min-gauge", action="append", default=[], metavar="KEY=VALUE",
                    help="require gauge KEY (in any current artifact) >= VALUE")
    args = ap.parse_args()

    failures: list[str] = []
    regressed: list[tuple[Path, Path]] = []
    current_gauges: dict[str, float] = {}
    for pair in args.pairs:
        if "=" not in pair:
            ap.error(f"bad pair '{pair}', expected BASELINE=CURRENT")
        base_s, cur_s = pair.split("=", 1)
        base_path, cur_path = Path(base_s), Path(cur_s)
        print(f"comparing {cur_path} against {base_path}")
        base, cur = load_gauges(base_path), load_gauges(cur_path)
        for host_key in ("machine.hw_threads", "machine.simd_bits"):
            bv, cv = base.get(host_key), cur.get(host_key)
            if bv != cv:
                print(f"error: {cur_path} ran on a host with {host_key} {cv}, "
                      f"{base_path} on one with {bv}: walls from different host classes "
                      "are not comparable; record a baseline on this host class",
                      file=sys.stderr)
                return 2
        pair_failures = compare_pair(base, cur, args.threshold, args.min_seconds,
                                     args.normalize)
        if pair_failures:
            regressed.append((base_path, cur_path))
        failures += pair_failures
        current_gauges.update(cur)

    for spec in args.min_gauge:
        if "=" not in spec:
            ap.error(f"bad --min-gauge '{spec}', expected KEY=VALUE")
        key, floor_s = spec.split("=", 1)
        floor = float(floor_s)
        val = current_gauges.get(key)
        if val is None:
            failures.append(f"{key}: floor {floor} requested but gauge not found")
        elif val < floor:
            failures.append(f"{key}: {val:.4f} below required floor {floor:.4f}")
        else:
            print(f"floor {key}: {val:.4f} >= {floor:.4f} [ok]")

    if failures:
        for base_path, cur_path in regressed:
            failures += attribute_regression(base_path, cur_path, args.normalize)
        print("\nbench regression check FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench regression check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
