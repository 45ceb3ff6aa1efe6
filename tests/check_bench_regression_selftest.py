#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py on the committed baselines.

Works on temporary copies of bench/baselines/RUNREPORT_*.json and asserts:
  * every baseline compared with itself exits 0;
  * a copy with one gated `*wall_s` gauge raised 20% exits 1 and names the key;
  * a --min-gauge key that is absent exits 1;
  * a document of the retired flat metrics-snapshot schema exits 2;
  * a pair whose machine.hw_threads differ exits 2 and names both values;
  * so does a pair whose machine.simd_bits differ.

Usage: check_bench_regression_selftest.py <check_bench_regression.py> <baselines dir>
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def run(checker: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, checker, *args], capture_output=True, text=True)


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: check_bench_regression_selftest.py CHECKER BASELINES_DIR", file=sys.stderr)
        return 2
    checker, baselines = sys.argv[1], Path(sys.argv[2])
    reports = sorted(baselines.glob("RUNREPORT_*.json"))
    assert reports, f"no RUNREPORT_*.json baselines in {baselines}"

    with tempfile.TemporaryDirectory() as tmp_s:
        tmp = Path(tmp_s)
        copies = [Path(shutil.copy(r, tmp / r.name)) for r in reports]

        # 1. Each baseline against itself is clean.
        proc = run(checker, *[f"{c}={c}" for c in copies])
        assert proc.returncode == 0, f"self-compare exited {proc.returncode}:\n{proc.stdout}"

        # 2. One gated wall raised 20% fails the default 1.10 threshold.
        base = copies[0]
        doc = json.loads(base.read_text())
        gated = sorted(k for k, v in doc["gauges"].items()
                       if k.endswith("wall_s") and v is not None and v >= 1e-3)
        assert gated, f"{base.name} has no gated wall gauge"
        key = gated[0]
        doc["gauges"][key] *= 1.2
        slower = tmp / f"slower_{base.name}"
        slower.write_text(json.dumps(doc))
        proc = run(checker, f"{base}={slower}")
        assert proc.returncode == 1, f"raised wall exited {proc.returncode}:\n{proc.stdout}"
        assert f"{key}:" in proc.stdout.split("FAILED:")[-1], \
            f"failure summary does not name {key}:\n{proc.stdout}"

        # 3. A floor on a gauge that no artifact carries fails.
        proc = run(checker, f"{base}={base}", "--min-gauge", "selftest.absent_gauge=1")
        assert proc.returncode == 1, f"absent floor exited {proc.returncode}:\n{proc.stdout}"
        assert "selftest.absent_gauge" in proc.stdout, proc.stdout

        # 4. Another schema (the retired flat metrics snapshot) is a parse
        #    error, not a comparison.
        retired = doc["schema"].replace("runreport", "metrics")
        metrics = tmp / "BENCH_old.json"
        metrics.write_text(json.dumps({"schema": retired, "gauges": {"x.wall_s": 1.0}}))
        proc = run(checker, f"{metrics}={metrics}")
        assert proc.returncode == 2, f"{retired} exited {proc.returncode}:\n{proc.stdout}"

        # 5. Baselines from another host class are refused, not compared.
        other = json.loads(base.read_text())
        threads = other["gauges"]["machine.hw_threads"]
        other["gauges"]["machine.hw_threads"] = threads + 60
        foreign = tmp / f"foreign_{base.name}"
        foreign.write_text(json.dumps(other))
        proc = run(checker, f"{base}={foreign}")
        assert proc.returncode == 2, f"hw_threads mismatch exited {proc.returncode}:\n{proc.stdout}"
        for value in (threads, threads + 60):
            assert f"{value}" in proc.stderr, f"refusal does not name {value}:\n{proc.stderr}"

        # 6. So are baselines from a host of another vector ISA (the GEMM
        #    kernel is picked per ISA at run time).
        other = json.loads(base.read_text())
        bits = other["gauges"]["machine.simd_bits"]
        narrower = 256 if bits != 256 else 128
        other["gauges"]["machine.simd_bits"] = narrower
        foreign = tmp / f"foreign_isa_{base.name}"
        foreign.write_text(json.dumps(other))
        proc = run(checker, f"{base}={foreign}")
        assert proc.returncode == 2, f"simd_bits mismatch exited {proc.returncode}:\n{proc.stdout}"
        assert "machine.simd_bits" in proc.stderr, f"refusal does not name the key:\n{proc.stderr}"
        for value in (bits, narrower):
            assert f"{value}" in proc.stderr, f"refusal does not name {value}:\n{proc.stderr}"

    print("check_bench_regression_selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
