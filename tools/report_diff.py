#!/usr/bin/env python3
"""RunReport differ: attribute an end-to-end wall delta to spans and ledgers.

Compares two `dftfe.runreport.v1` flight-recorder artifacts (obs/report.hpp
— written by Simulation::run(), examples/quickstart, and every bench via
bench_common.hpp) and answers the question a flat wall-time diff cannot:
*where* did the time go. The span tree is flattened to slash paths
(`Simulation-run/SCF/SCF-iter/CF`), the per-span self times are diffed, and
the end-to-end wall delta is attributed to the top-k movers. The comm and
memory ledgers are diffed line-by-line alongside, so a wall regression that
coincides with a byte-count or exposed-wait jump is immediately explainable
(e.g. an injected wire delay shows up as CF-halo self time plus a matching
comm.halo exposed-wait increase). A build with tracing off records no span
tree; the differ then attributes the delta from the `profile` section's
per-name total seconds instead (inclusive, pooled over threads and lanes).

Machine normalization mirrors tools/check_bench_regression.py: when both
reports carry the `machine.peak_gflops` gauge (bench artifacts do), current
times are scaled by cur_peak/base_peak so a uniform host speed difference
cancels. Reports without the gauge (quickstart runs) compare raw seconds.

Usage
  report_diff.py BASELINE.json CURRENT.json [--top N] [--gate] [--threshold R]

Exit status: 0 informational / gate passed, 1 gate failed (--gate only and
current wall > baseline wall * threshold), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "dftfe.runreport.v1"


def load_report(path: Path) -> dict:
    try:
        with path.open() as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"error: {path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def flatten_spans(spans: list[dict], prefix: str = "") -> dict[str, dict]:
    """Span tree -> {slash/path: {self_s, total_s, count}}; paths are unique
    because build_run_report aggregates same-name siblings into one node."""
    out: dict[str, dict] = {}
    for s in spans:
        path = f"{prefix}/{s['name']}" if prefix else s["name"]
        out[path] = {"self_s": float(s.get("self_s", 0.0)),
                     "total_s": float(s.get("total_s", 0.0)),
                     "count": int(s.get("count", 0))}
        out.update(flatten_spans(s.get("children", []), path))
    return out


def fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.1f} GiB"


def diff_scalar(label: str, base: float, cur: float, unit: str = "") -> str:
    return f"  {label}: {base:.6g}{unit} -> {cur:.6g}{unit} ({cur - base:+.6g}{unit})"


def diff_comm(base: dict, cur: dict) -> None:
    print("comm ledger:")
    empty = {"bytes": 0, "messages": 0}
    for prec in ("fp64", "fp32", "bf16"):
        b, c = base["wire"].get(prec, empty), cur["wire"].get(prec, empty)
        print(f"  wire.{prec}: {fmt_bytes(b['bytes'])} / {b['messages']} msgs -> "
              f"{fmt_bytes(c['bytes'])} / {c['messages']} msgs "
              f"(bytes {c['bytes'] - b['bytes']:+d}, msgs {c['messages'] - b['messages']:+d})")
    for key in ("exposed_wait_s", "modeled_s", "pack_s"):
        print(diff_scalar(f"halo.{key}", base["halo"][key], cur["halo"][key], " s"))
    for key in ("fp32_drift_rms", "bf16_drift_rms", "drift_budget_used"):
        print(diff_scalar(key, base.get(key, 0.0), cur.get(key, 0.0)))
    blanes = {l["lane"]: l for l in base.get("lanes", [])}
    clanes = {l["lane"]: l for l in cur.get("lanes", [])}
    for lane in sorted(set(blanes) | set(clanes)):
        b = blanes.get(lane, {"bytes": 0, "messages": 0, "exposed_wait_s": 0.0})
        c = clanes.get(lane, {"bytes": 0, "messages": 0, "exposed_wait_s": 0.0})
        print(f"  lane {lane}: {fmt_bytes(b['bytes'])} -> {fmt_bytes(c['bytes'])}, "
              f"wait {b['exposed_wait_s']:.4f}s -> {c['exposed_wait_s']:.4f}s "
              f"({c['exposed_wait_s'] - b['exposed_wait_s']:+.4f}s)")


def diff_memory(base: dict, cur: dict) -> None:
    print("memory ledger:")
    for key in ("allocations", "bytes_allocated", "checkouts"):
        b, c = base.get(key, 0), cur.get(key, 0)
        print(f"  workspace.{key}: {b} -> {c} ({c - b:+d})")
    bpools, cpools = base.get("pools", {}), cur.get("pools", {})
    for name in sorted(set(bpools) | set(cpools)):
        b = bpools.get(name, {"highwater_bytes": 0, "leases": 0})
        c = cpools.get(name, {"highwater_bytes": 0, "leases": 0})
        print(f"  pool {name}: highwater {fmt_bytes(b['highwater_bytes'])} -> "
              f"{fmt_bytes(c['highwater_bytes'])}, leases {b['leases']} -> {c['leases']}")
    blanes = {l["lane"]: l["highwater_bytes"] for l in base.get("lanes", [])}
    clanes = {l["lane"]: l["highwater_bytes"] for l in cur.get("lanes", [])}
    for lane in sorted(set(blanes) | set(clanes)):
        b, c = blanes.get(lane, 0), clanes.get(lane, 0)
        print(f"  lane {lane}: highwater {fmt_bytes(b)} -> {fmt_bytes(c)} ({c - b:+d} B)")


def diff_convergence(base: dict, cur: dict) -> None:
    print("convergence:")
    print(f"  iterations: {base.get('iterations')} -> {cur.get('iterations')}")
    print(f"  converged: {base.get('converged')} -> {cur.get('converged')}")
    print(diff_scalar("residual_final", base.get("residual_final", 0.0),
                      cur.get("residual_final", 0.0)))


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Attribute the wall delta between two RunReports to spans/ledgers.")
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--top", type=int, default=5,
                    help="number of top span movers to attribute (default 5)")
    ap.add_argument("--gate", action="store_true",
                    help="exit 1 when current wall > baseline wall * --threshold")
    ap.add_argument("--threshold", type=float, default=1.10,
                    help="allowed current/baseline wall ratio for --gate (default 1.10)")
    ap.add_argument("--normalize", choices=["peak", "none"], default="peak",
                    help="scale current times by the hosts' machine.peak_gflops ratio "
                         "when both reports carry it (default: peak)")
    args = ap.parse_args()

    base = load_report(args.baseline)
    cur = load_report(args.current)

    scale = 1.0  # multiplies *current* times into baseline-host seconds
    if args.normalize == "peak":
        bp = base.get("gauges", {}).get("machine.peak_gflops")
        cp = cur.get("gauges", {}).get("machine.peak_gflops")
        if bp and cp:
            scale = float(cp) / float(bp)
            print(f"normalization: baseline peak {float(bp):.2f} GFLOPS, current "
                  f"{float(cp):.2f} GFLOPS -> scale x{scale:.3f}")
        else:
            print("normalization: machine.peak_gflops missing, comparing raw seconds")

    bwall = float(base.get("wall_s", 0.0))
    cwall = float(cur.get("wall_s", 0.0)) * scale
    dwall = cwall - bwall
    ratio = cwall / bwall if bwall > 0 else float("inf")
    print(f"wall: {bwall:.4f}s -> {cwall:.4f}s ({dwall:+.4f}s, x{ratio:.3f})   "
          f"[{base.get('label')} vs {cur.get('label')}]")
    print(f"lanes: {base.get('nlanes')} -> {cur.get('nlanes')}")
    print()

    # {path or name: (seconds, count)} per report, from the span tree when
    # either report has one, else from the profile section.
    bspans = flatten_spans(base.get("spans", []))
    cspans = flatten_spans(cur.get("spans", []))
    if bspans or cspans:
        kind = "self"
        btimes = {p: (s["self_s"], s["count"]) for p, s in bspans.items()}
        ctimes = {p: (s["self_s"], s["count"]) for p, s in cspans.items()}
    else:
        kind = "total"
        print("note: neither report has a span tree (tracing off); attributing "
              "from the profile section's per-name total seconds")
        btimes = {n: (float(e["seconds"]), int(e["count"]))
                  for n, e in base.get("profile", {}).items()}
        ctimes = {n: (float(e["seconds"]), int(e["count"]))
                  for n, e in cur.get("profile", {}).items()}
    movers = []
    for path in set(btimes) | set(ctimes):
        bs, bcount = btimes.get(path, (0.0, 0))
        cs, ccount = ctimes.get(path, (0.0, 0))
        movers.append((cs * scale - bs, path, bs, cs * scale, bcount, ccount))
    movers.sort(key=lambda m: -abs(m[0]))

    print(f"top {args.top} span movers by {kind}-time delta "
          f"(attributing {dwall:+.4f}s end-to-end):")
    attributed = 0.0
    for delta, path, bs, cs, bcount, ccount in movers[:args.top]:
        attributed += delta
        share = 100.0 * delta / dwall if abs(dwall) > 1e-12 else 0.0
        # Machine-greppable: check_bench_regression.py lifts these lines into
        # its failure message on a floor breach.
        print(f"  TOP-SPAN {path}: {kind} {bs:.4f}s -> {cs:.4f}s "
              f"({delta:+.4f}s, {share:.0f}% of wall delta, "
              f"count {bcount} -> {ccount})")
    print(f"  ({attributed:+.4f}s of {dwall:+.4f}s attributed by the top "
          f"{min(args.top, len(movers))})")
    print()

    diff_comm(base["comm"], cur["comm"])
    print()
    diff_memory(base["memory"], cur["memory"])
    print()
    diff_convergence(base["convergence"], cur["convergence"])

    if args.gate and bwall > 0 and cwall > bwall * args.threshold:
        print(f"\nreport_diff GATE FAILED: wall x{ratio:.3f} > allowed x{args.threshold:.2f}")
        return 1
    if args.gate:
        print(f"\nreport_diff gate OK (x{ratio:.3f} <= x{args.threshold:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
