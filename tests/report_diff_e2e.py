#!/usr/bin/env python3
"""End-to-end RunReport attribution test (the ISSUE acceptance scenario).

Runs the quickstart twice on the threaded 4-lane backend in sync engine mode
— once clean on the FP64 wire (pinned: the threaded default is now FP32),
once with the injected wire delay, the FP32 wire, and a
throttled modeled bandwidth — then runs tools/report_diff.py on the two
RunReports and asserts the differ attributes the slowdown to the
halo-exchange spans (CF-halo). Also checks the acceptance invariants of the
report itself: nonzero FP32 and FP64 wire bytes, measured exposed wait,
per-lane Workspace high-water marks, the non-SCF poisson.iterations series,
and a `profile` section that agrees span by span with `histograms` (both are
emitted from the one ProfileRegistry).

Usage: report_diff_e2e.py <example_quickstart binary> <tools/report_diff.py>
"""

import json
import os
import subprocess
import sys


def run_quickstart(binary: str, report: str, extra_env: dict) -> None:
    env = dict(os.environ, DFTFE_BACKEND="threaded", DFTFE_NLANES="4",
               DFTFE_ENGINE_MODE="sync", DFTFE_REPORT=report, **extra_env)
    subprocess.run([binary], env=env, check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: report_diff_e2e.py QUICKSTART REPORT_DIFF", file=sys.stderr)
        return 2
    quickstart, report_diff = sys.argv[1], sys.argv[2]

    run_quickstart(quickstart, "e2e_fast.json", {"DFTFE_WIRE": "fp64"})
    run_quickstart(quickstart, "e2e_slow.json",
                   {"DFTFE_INJECT_WIRE_DELAY": "1", "DFTFE_WIRE": "fp32",
                    "DFTFE_WIRE_BW": "2e7"})

    # Acceptance invariants of the clean threaded report.
    fast = json.load(open("e2e_fast.json"))
    assert fast["schema"] == "dftfe.runreport.v1", fast["schema"]
    assert fast["nlanes"] == 4, fast["nlanes"]
    comm = fast["comm"]
    assert comm["wire"]["fp64"]["bytes"] > 0, "no FP64 wire bytes recorded"
    assert comm["wire"]["fp32"]["bytes"] > 0, \
        "no FP32 wire bytes (mixed-precision Gram split inactive?)"
    assert comm["halo"]["exposed_wait_s"] > 0, "no measured exposed halo wait"
    mem_lanes = fast["memory"]["lanes"]
    assert len(mem_lanes) == 4 and all(l["highwater_bytes"] > 0 for l in mem_lanes), \
        f"per-lane workspace high-water marks missing: {mem_lanes}"
    assert fast["convergence"]["converged"], "quickstart did not converge"
    assert fast["convergence"]["series"].get("poisson.iterations"), \
        "poisson.iterations series missing from the RunReport"
    profile, hists = fast["profile"], fast["histograms"]
    assert profile and profile.keys() == hists.keys(), \
        f"profile/histograms span names differ: {sorted(profile.keys() ^ hists.keys())}"
    for name, entry in profile.items():
        assert entry["seconds"] == hists[name]["sum"], name
        assert entry["count"] == hists[name]["count"], name

    out = subprocess.run(
        [sys.executable, report_diff, "e2e_fast.json", "e2e_slow.json", "--top", "3"],
        check=True, capture_output=True, text=True).stdout
    sys.stdout.write(out)

    top = [l for l in out.splitlines() if l.strip().startswith("TOP-SPAN")]
    assert top, "report_diff printed no TOP-SPAN attribution lines"
    assert any("CF-halo" in l for l in top), \
        "injected wire delay was not attributed to the halo-exchange spans:\n" + "\n".join(top)

    slow = json.load(open("e2e_slow.json"))
    assert slow["comm"]["wire"]["fp32"]["bytes"] > comm["wire"]["fp32"]["bytes"], \
        "FP32 wire run did not shift halo traffic to FP32"
    assert slow["comm"]["fp32_drift_rms"] > 0, "FP32 wire drift gauge not populated"
    assert 0 < slow["comm"]["drift_budget_used"] < 1, \
        f"drift budget gauge out of range: {slow['comm']['drift_budget_used']}"

    print("report_diff_e2e OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
