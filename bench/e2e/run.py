#!/usr/bin/env python3
"""End-to-end benchmark runner.

Builds bench_e2e (a CMake package in this directory that pulls in the
repository's own build), runs each workload in its own child process,
measures it from outside, checks its energies against references.json, and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

One workload (the form BENCHMARK.json names):
    python3 bench/e2e/run.py --workload dimer-serial --seed 1 --seconds 25 --trace 0
The suite:
    python3 bench/e2e/run.py --seed 1 [--workloads A B ...] [--trace] --out R.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Timed runs: a few fresh set-up-only children (setup_s), then
one closed-loop child for the rest of --seconds (solve_s, jobs_per_s, and
its peak RSS from wait4). Every child runs with OMP_NUM_THREADS=1 and no
DFTFE_* variables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"

# Fresh-process set-up probes per timed run. Each qc43 probe trains the MLXC
# surrogate (~0.9 s), so it gets fewer.
SETUP_PROBES = {"qc43-mlxc-lanes4": 3}
DEFAULT_SETUP_PROBES = 5
SMOKE_WORKLOADS = ["dimer-serial", "dimer-lanes4"]
CHILD_LIMIT_S = 170.0  # a run must end within 180 s


# ----------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative:
    better). `better` is "lower" or "higher"."""
    if base == 0:
        return 0.0
    d = (new - base) / abs(base)
    return d if better == "lower" else -d


# ---------------------------------------------------------------------- build

def build(build_dir: Path) -> Path:
    """Configure (once) and build bench_e2e in Release; make skips the work
    when nothing changed."""
    tree = build_dir / "bench_e2e"
    tree.mkdir(parents=True, exist_ok=True)
    log = tree / "build.log"
    steps = [["cmake", "--build", str(tree), "--target", "bench_e2e", "-j",
              str(max(1, min(4, os.cpu_count() or 1)))]]
    if not any((tree / f).is_file() for f in ("Makefile", "build.ninja")):
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-25:]
                sys.stderr.write("run.py: build failed (%s)\n%s\n" % (log, "\n".join(tail)))
                sys.exit(2)
    return tree / "bench_e2e"


# --------------------------------------------------------------------- children

def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DFTFE_")}
    env["OMP_NUM_THREADS"] = "1"
    return env


class Child:
    """One bench_e2e process: its tagged stdout records, exit status, signal,
    and peak RSS (ru_maxrss from wait4)."""

    def __init__(self, argv, limit_s, stderr_path: Path):
        self.records = []
        self.signal = 0
        self.exit_code = None
        self.peak_rss_mb = 0.0
        self.timed_out = False
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                    cwd=ROOT, text=True)
            timer = threading.Timer(limit_s, self._kill, (proc,))
            timer.start()
            try:
                for line in proc.stdout:
                    tag, _, body = line.partition(" ")
                    if tag in ("SETUP", "MACHINE", "OP", "LAYER"):
                        try:
                            self.records.append((tag, json.loads(body)))
                        except ValueError:
                            pass
            except BaseException:
                proc.kill()
                raise
            finally:
                timer.cancel()
                # Reap with wait4 (not Popen.wait) to read the child's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
                proc.stdout.close()
        if proc.returncode < 0:
            self.signal = -proc.returncode
        else:
            self.exit_code = proc.returncode
        self.stderr = stderr_path.read_text(errors="replace")

    def _kill(self, proc):
        self.timed_out = True
        proc.kill()

    def get(self, tag):
        return [body for t, body in self.records if t == tag]


# ------------------------------------------------------------------ correctness

def check_op(op, workload, refs, smoke):
    """Per job of one op: (ok, reason). A job fails if it threw, did not
    converge, or its energy is outside the committed tolerance."""
    results = []
    for job in op["jobs"]:
        reason = ""
        if op["error"]:
            reason = op["error"]
        elif not job["ok"]:
            reason = job["error"] or "job failed"
        elif smoke:
            if job["energy"] != job["energy"]:
                reason = "energy is NaN"
        elif not job["converged"]:
            reason = "SCF did not converge"
        else:
            ref = refs.get(workload, {}).get(job["name"])
            if ref is None:
                reason = "no reference energy for %s" % job["name"]
            elif abs(job["energy"] - ref["energy"]) > ref["tol"]:
                reason = "energy %.12f outside %.12f +- %.1e" % (job["energy"], ref["energy"],
                                                               ref["tol"])
        results.append((not reason, reason))
    if op["error"] and not results:
        results.append((False, op["error"]))
    return results


# ------------------------------------------------------------------ a workload

def run_workload(binary, workload, seed, seconds, trace, smoke, tmp, out_dir, refs, machine):
    """Run one workload; returns its result dict."""
    t0 = time.monotonic()
    common = ["--workload", workload, "--tmp", str(tmp)] + (["--smoke"] if smoke else [])
    res = {"workload": workload, "seed": seed, "attempted": 0, "failed": 0, "errors": [],
           "signal": 0, "metrics": {}, "samples": {}}

    def account(child):
        ops = child.get("OP")
        for op in ops:
            for ok, reason in check_op(op, workload, refs, smoke):
                res["attempted"] += 1
                if not ok:
                    res["failed"] += 1
                    res["errors"].append(reason)
        if child.signal or child.timed_out or child.exit_code not in (0, 3):
            # A child that died counts every op it planned (the ones it
            # reported and the one in flight) as failed.
            planned = (len(ops) + 1) * (len(ops[-1]["jobs"]) if ops else 1)
            res["attempted"] = max(res["attempted"], planned)
            res["failed"] = res["attempted"]
            res["signal"] = child.signal
            why = ("killed after %.0f s" % CHILD_LIMIT_S if child.timed_out else
                   "signal %d" % child.signal if child.signal else "exit %s" % child.exit_code)
            res["errors"].append("%s: %s; %s" % (workload, why, child.stderr.strip()[-500:]))
        return ops

    def set_up_probe(k, with_machine):
        argv = [str(binary), "--seed", str(seed * 100 + k), "--setup-only"] + common
        probe = Child(argv + (["--machine"] if with_machine else []), 60.0,
                      tmp / ("%s.setup.stderr" % workload))
        for m in probe.get("MACHINE"):
            machine.update(m)
        got = probe.get("SETUP")
        if probe.exit_code == 0 and got:
            return got[0]["setup_s"]
        res["attempted"] += 1
        res["failed"] += 1
        res["errors"].append("%s: set-up probe failed: %s" % (workload, probe.stderr[-500:]))
        return None

    need_machine = "calibrated_peak_gflops" not in machine
    if trace:
        if need_machine:
            set_up_probe(0, True)
        child = Child([str(binary), "--seed", str(seed), "--trace", str(out_dir)] + common,
                      CHILD_LIMIT_S, tmp / ("%s.trace.stderr" % workload))
        account(child)
        layers = child.get("LAYER")
        if layers:
            res["metrics"] = dict(layers[-1])
            n = res["metrics"].pop("ks.scf_iter.samples", 0)
            res["samples"] = {"ks.scf_iter.p50_s": n, "ks.scf_iter.p75_s": n}
        elif not res["failed"]:
            res["failed"] = max(1, res["attempted"])
            res["errors"].append("%s: no per-layer record" % workload)
        return res

    setups = [set_up_probe(k, need_machine and k == 0)
              for k in range(SETUP_PROBES.get(workload, DEFAULT_SETUP_PROBES))]
    setups = [s for s in setups if s is not None]

    budget = max(1.0, seconds - (time.monotonic() - t0))
    child = Child([str(binary), "--seed", str(seed), "--seconds", "%.3f" % budget] + common,
                  max(1.0, CHILD_LIMIT_S - (time.monotonic() - t0)),
                  tmp / ("%s.stderr" % workload))
    ops = account(child)
    res["energies"] = [(j["name"], j["energy"]) for op in ops for j in op["jobs"]
                       if j["ok"] and j["converged"]]
    res["ops"] = [{"setup_s": op["setup_s"], "solve_s": op["solve_s"],
                   "iterations": [j["iterations"] for j in op["jobs"]]} for op in ops]
    res["setup_probes_s"] = setups
    solve = [op["solve_s"] for op in ops if not op["error"]]
    rates = []
    for op in ops:
        good = sum(ok for ok, _ in check_op(op, workload, refs, smoke))
        rates.append(good / (op["setup_s"] + op["solve_s"]) if op["solve_s"] > 0 else 0.0)
    res["samples"] = {"solve_s": len(solve), "setup_s": len(setups), "jobs_per_s": len(rates),
                      "peak_rss_mb": 1}
    res["metrics"] = {"solve_s": median(solve), "setup_s": median(setups),
                      "jobs_per_s": median(rates), "peak_rss_mb": child.peak_rss_mb}
    return res


# ------------------------------------------------------------------------ main

def machine_block():
    cpu = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {"cpu_model": cpu, "git_sha": sha, "nproc": os.cpu_count()}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one workload (BENCHMARK.json names)")
    p.add_argument("--workloads", nargs="+", help="run these workloads (default: all)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"],
                   help="1: the per-layer (traced) run instead of the timed one")
    p.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build",
                   help="where bench_e2e is built (in <dir>/bench_e2e)")
    p.add_argument("--binary", type=Path, help="use this prebuilt bench_e2e")
    p.add_argument("--out", type=Path, help="write the full result document here")
    p.add_argument("--smoke", action="store_true",
                   help="tiny meshes and a fixed 2-iteration SCF; no reference check")
    p.add_argument("--record-references", action="store_true",
                   help="run seeds SEED..SEED+4 and rewrite references.json from their energies")
    return p.parse_args(argv)


def record_references(run, workloads, first_seed):
    """Reference energy per workload and job: the median over five seeds,
    with a tolerance of max(1e-8 Ha, 10x the spread across those seeds)."""
    seeds = list(range(first_seed, first_seed + 5))
    energies = {}
    for seed in seeds:
        for w in workloads:
            for job, e in run(w, seed)["energies"]:
                energies.setdefault(w, {}).setdefault(job, []).append(e)
    doc = {"rule": "energy = median over seeds %s; tol = max(1e-8 Ha, 10 x (max - min))" % seeds,
           "energies": {w: {job: {"energy": median(es), "spread": max(es) - min(es),
                                  "tol": max(1e-8, 10.0 * (max(es) - min(es))), "n": len(es)}
                            for job, es in sorted(jobs.items())}
                        for w, jobs in sorted(energies.items())}}
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % REFERENCES)


def main(argv=None):
    bench = load_json(BENCHMARK)
    args = parse_args(argv, bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        workloads = [args.workload]
    elif args.workloads:
        workloads = args.workloads
    else:
        workloads = SMOKE_WORKLOADS if args.smoke else names
    for w in workloads:
        if w not in names:
            sys.stderr.write("run.py: unknown workload %s (known: %s)\n" % (w, ", ".join(names)))
            return 2
    trace = args.trace == "1"
    metric_defs = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_defs}

    binary = args.binary.resolve() if args.binary else build(args.build_dir.resolve())
    work = args.build_dir.resolve() / "run"
    tmp = work / ("tmp_%d_%d" % (os.getpid(), args.seed))
    out_dir = work / "out"
    tmp.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = load_json(REFERENCES)["energies"]

    machine = machine_block()
    results = {}
    if args.record_references:
        try:
            record_references(lambda w, seed: run_workload(
                binary, w, seed, args.seconds, False, False, tmp, out_dir, refs, machine),
                workloads, args.seed)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    try:
        for w in workloads:
            r = run_workload(binary, w, args.seed, args.seconds, trace, args.smoke, tmp, out_dir,
                             refs, machine)
            missing = [m for m in units if m not in r["metrics"]]
            extra = [m for m in r["metrics"] if m not in units]
            if (missing or extra) and not r["failed"]:
                r["failed"] = max(1, r["attempted"])
                r["errors"].append("%s: metric set mismatch (missing %s, unexpected %s)"
                                   % (w, missing, extra))
            results[w] = r
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Human-readable report.
    for w, r in results.items():
        print("== %s (seed %d, %s): %d/%d ops ok%s" % (
            w, args.seed, "traced" if trace else "timed", r["attempted"] - r["failed"],
            r["attempted"], ", signal %d" % r["signal"] if r["signal"] else ""))
        for name in units:
            if name in r["metrics"]:
                n = r["samples"].get(name)
                print("  %-34s %16.6g %-8s%s" % (name, r["metrics"][name], units[name],
                                                 "  (n=%d)" % n if n else ""))
        print("  %-34s %16.6g %-8s  (%d of %d ops)" % (
            "failed_frac", r["failed"] / max(1, r["attempted"]), "ratio", r["failed"],
            r["attempted"]))
        for e in r["errors"][:5]:
            print("  FAILED: %s" % e)
    if not trace and "dimer-serial" in results and "dimer-lanes4" in results:
        a = results["dimer-serial"]["metrics"].get("solve_s", 0.0)
        b = results["dimer-lanes4"]["metrics"].get("solve_s", 0.0)
        if a and b:
            print("dimer lanes4 speedup: %.3fx (dimer-serial.solve_s / dimer-lanes4.solve_s; "
                  "not gated)" % (a / b))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        doc = {"schema": "bench_e2e.result.v1", "seed": args.seed, "trace": trace,
               "seconds": args.seconds, "smoke": args.smoke,
               "machine": machine, "units": units, "workloads": results}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    single = len(results) == 1
    metrics = {}
    for w, r in results.items():
        for name, value in r["metrics"].items():
            if name in units:
                metrics[name if single else "%s.%s" % (w, name)] = {"value": value,
                                                                     "unit": units[name]}
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
