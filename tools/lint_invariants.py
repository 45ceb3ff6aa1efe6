#!/usr/bin/env python3
"""Project-invariant linter: repo rules the compiler cannot enforce.

Registered as a ctest (see the top-level CMakeLists.txt) and run as a CI
gate, so a violation fails the build exactly like a failing unit test.

Rules (see DESIGN.md "Correctness & analysis tier"):

  hot-path-alloc   No naked heap growth (new, malloc, vector resize/push_back/
                   reserve/emplace_back, make_unique/make_shared) inside the
                   designated hot-path translation units of src/la, src/ks,
                   and the threaded rank engine's lane-side code in src/dd.
                   Scratch must go through la/workspace.hpp (WorkMatrix,
                   ensure_scratch) so the zero-allocation steady-state
                   invariant stays testable. The workspace layer
                   itself (la/workspace.hpp, la/matrix.hpp) is the sanctioned
                   allocation layer and is exempt.

  cout-outside-obs No direct `std::cout <<` / `printf(` outside src/obs —
                   all solver output flows through the DFTFE_LOG facade so
                   levels, sinks, and thread-atomicity hold everywhere.

  bench-determinism  No wall-clock-date or nondeterministic-seed sources in
                   bench/ (std::random_device, system_clock,
                   high_resolution_clock, rand/srand, time(...)): bench
                   results must be reproducible run-to-run; timing uses the
                   steady-clock Timer from base/timer.hpp.

  trace-vocab      Every TraceSpan name literal in src/ comes from the
                   paper's step vocabulary (Sec. 6.3) plus the registered
                   higher-level phases, so Table-3 style aggregation never
                   silently drops a misspelled step.

  metric-vocab     Every `comm.*` / `mem.*` / `svc.*` / `job.*` metric-name
                   string literal in src/ is either an exact member of the
                   RunReport ledger vocabulary (obs/report.hpp) plus the job
                   service's fleet gauges, or starts with a registered
                   per-lane/per-pool prefix. The comm/memory ledgers of the
                   RunReport are built by parsing these names back out of the
                   MetricsRegistry, so a misspelled publisher would silently
                   drop its line from every report and report_diff; the
                   svc/job namespaces are closed the same way so fleet
                   dashboards never chase a typo.

  tracing-gate     The DFTFE_ENABLE_TRACING gate is always used as a value
                   test (`#if DFTFE_ENABLE_TRACING`), never `#ifdef`/`#ifndef`
                   (the OFF configuration defines it to 0, which `#ifdef`
                   would treat as ON). The only exception is the canonical
                   default-define guard in obs/trace.hpp. Any file using the
                   gate must include obs/trace.hpp first (or be trace.hpp),
                   so the macro is always defined.

Waivers: a line may be exempted from one rule with an inline justification —

    some_vector.push_back(x);  // lint: allow(hot-path-alloc): why it is fine

on the same line or the line directly above. A waiver without a reason text
is itself a violation, as is a placeholder reason ("TODO", "temp", "xxx", or
anything without a real word in it). A waiver may carry an expiry date —

    // lint: allow(hot-path-alloc, until=2026-12-31): cold until the pool lands

after which it counts as a violation again; non-expired dated waivers are
listed in the run summary so they get revisited instead of fossilizing.
Waivers are for lines that are provably cold or amortized, not an escape
hatch; reviewers treat every new waiver as a design question.
"""

from __future__ import annotations

import argparse
import datetime
import re
import sys
from pathlib import Path

# --- rule configuration -----------------------------------------------------

HOT_PATH_FILES = [
    "src/la/blas.hpp",
    "src/la/batched.hpp",
    # The GEMM micro-kernel: one source, built once per ISA by the wrappers.
    "src/la/gemm_kernel.hpp",
    "src/la/gemm_tile.hpp",
    "src/la/gemm_sse2.cpp",
    "src/la/gemm_avx2.cpp",
    "src/la/gemm_avx512.cpp",
    "src/la/mixed.hpp",
    "src/la/iterative.hpp",
    "src/ks/hamiltonian.hpp",
    "src/ks/chfes.hpp",
    # The nodal KS kernel (fe::ks_nodal_rows) runs per column in the
    # Hamiltonian apply and per row range in every engine lane step; the
    # cell apply in every Poisson CG iteration, KS apply and lane step (its
    # constructor's sizing carries waivers).
    "src/fe/cell_ops.hpp",
    "src/fe/cell_ops.cpp",
    # The serial policy of la::pcg (fe::PoissonSolver::SerialCg): its apply
    # and dot product run every CG iteration of a serial EP solve; the solve
    # itself runs once per SCF iteration on vectors sized at construction.
    "src/fe/poisson.hpp",
    "src/fe/poisson.cpp",
    # Threaded rank engine (RankEngine over the brick partition): everything
    # a lane touches after startup (the per-step filter/apply path, the
    # per-neighbor run-list copies, and the mailbox transport) must be
    # allocation-free; cold sizing and run-list construction live in
    # dd/engine.cpp, which is deliberately not listed here. The partition's
    # inline neighbor/coords lookups ride along.
    "src/dd/engine.hpp",
    "src/dd/mailbox.hpp",
    # The wire codec runs per value in every halo pack/unpack, and the
    # ledger's CommStats per packet.
    "src/dd/exchange.hpp",
    "src/dd/allreduce.hpp",
    "src/dd/partition.hpp",
    # Execution seam and serial backend: the inline stage methods (apply /
    # filter_block / overlap / accumulate_density) run once per recurrence
    # step or SCF stage; construction and the factory live in dd/backend.cpp
    # (cold).
    "src/dd/backend.hpp",
    # SCF driver: the per-iteration loop body (potential update, solver
    # cycles, density build, mixing) — per-solve setup needs waivers.
    "src/ks/scf.cpp",
    # Job service hot path: the bounded queue sits on every submit/pop and
    # must stay allocation-free in steady state (the ring is sized once at
    # construction).
    "src/svc/queue.hpp",
]

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\s*[A-Za-z_:<(\[]"), "naked operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "C heap allocation"),
    (re.compile(r"\.\s*(?:resize|reserve|push_back|emplace_back)\s*\("),
     "container growth"),
    (re.compile(r"\bstd::make_(?:unique|shared)\b"), "smart-pointer allocation"),
]

NONDET_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "nondeterministic seed source"),
    (re.compile(r"\bsystem_clock\b"), "wall-clock date source"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "may alias system_clock; use base/timer.hpp Timer (steady_clock)"),
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "C PRNG with global hidden state"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "wall-clock seed"),
]

# The paper's per-step vocabulary (Sec. 6.3) plus registered phase names.
TRACE_VOCAB = {
    # Algorithm 1 steps
    "CF", "CholGS-S", "CholGS-CI", "CholGS-O", "RR-P", "RR-D", "RR-SR",
    "DC", "DH", "EP",
    # registered higher-level phases
    "SCF", "SCF-iter", "ChFES-cycle", "Relax-step",
    "invDFT-forward", "invDFT-adjoint", "Simulation-run",
    # threaded rank engine (dd/engine.hpp) lane-side spans, plus the
    # driver-side tree allreduce of the brick gram partials (dd/engine.cpp);
    # EP-lane is the lane-resident PCG job, PCG-reduce its time blocked in
    # the in-job lane allreduce (dd/allreduce.hpp)
    "CF-lane", "CF-halo", "Engine-apply", "Gram-lane", "Gram-tree", "DC-lane",
    "EP-lane", "PCG-reduce",
}

TRACE_SPAN_RE = re.compile(r"\bTraceSpan\b[^(;]*\(\s*\"([^\"]*)\"")

# RunReport ledger vocabulary (obs/report.hpp): the exact metric names the
# comm/memory ledgers are parsed from, plus the per-lane / per-pool prefixes
# whose suffix is dynamic (lane index, pool name).
METRIC_VOCAB = {
    "comm.wire.fp64.bytes", "comm.wire.fp32.bytes", "comm.wire.bf16.bytes",
    "comm.wire.fp64.messages", "comm.wire.fp32.messages", "comm.wire.bf16.messages",
    "comm.halo.exposed_wait_s", "comm.halo.modeled_s", "comm.halo.pack_s",
    "comm.wire.fp32.drift_rms", "comm.wire.bf16.drift_rms",
    "comm.wire.drift_budget_used",
    "mem.workspace.allocations", "mem.workspace.bytes_allocated",
    "mem.workspace.checkouts",
    # Job service fleet counters/gauges (src/svc) and per-job gauges
    # (core/job.cpp): closed namespaces like the ledgers above.
    "svc.jobs.submitted", "svc.jobs.completed", "svc.jobs.failed",
    "svc.jobs.resumed", "svc.workers",
    "svc.queue.capacity", "svc.queue.highwater",
    "job.energy", "job.resume.iteration", "job.checkpoint.writes",
}
METRIC_PREFIXES = ("comm.lane", "mem.lane", "mem.pool.")

METRIC_NAME_RE = re.compile(r"\"((?:comm|mem|svc|job)\.[^\"]*)\"")

WAIVER_RE = re.compile(
    r"//\s*lint:\s*allow\(([a-z-]+)"
    r"(?:\s*,\s*until\s*=\s*(\d{4}-\d{2}-\d{2}))?\)\s*(?::\s*(\S.*))?")

# Reasons that explain nothing: pure placeholders, or strings with no actual
# word in them. A real justification names why the line is cold/amortized.
PLACEHOLDER_REASONS = {"todo", "tbd", "temp", "tmp", "wip", "fixme", "xxx",
                       "ok", "fine", "allow", "waiver", "because"}

CXX_GLOBS = ("**/*.hpp", "**/*.cpp", "**/*.h", "**/*.cc")


class Violation:
    def __init__(self, rule: str, path: Path, line_no: int, message: str):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.message = message

    def render(self, root: Path) -> str:
        rel = self.path.relative_to(root)
        return f"{rel}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out string literals, // comments, and /* */ comments, keeping
    line structure so reported line numbers match the file."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in ("\"", "'"):
                quote = ch
                result.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote)
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def collect_waivers(lines: list[str], violations: list[Violation],
                    path: Path, today: str,
                    expiring: list[str], root: Path) -> dict[int, set[str]]:
    """Map line number -> set of waived rules. A waiver covers its own line
    and the line below (for waivers placed on their own line above the
    waived statement). Reason text is mandatory and must say something; an
    `until=` date past `today` voids the waiver, a future one is reported in
    the expiring-waiver summary."""
    waived: dict[int, set[str]] = {}
    for idx, line in enumerate(lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rule, until, reason = m.group(1), m.group(2), m.group(3)
        if not reason:
            violations.append(Violation(
                "waiver-format", path, idx,
                f"waiver for '{rule}' has no justification text "
                "(expected '// lint: allow(rule): reason')"))
            continue
        words = re.findall(r"[A-Za-z]{2,}", reason)
        if not words or (len(words) == 1 and words[0].lower() in PLACEHOLDER_REASONS):
            violations.append(Violation(
                "waiver-format", path, idx,
                f"waiver for '{rule}' has a placeholder justification "
                f"('{reason.strip()}'); say why the line is cold/amortized"))
            continue
        if until is not None:
            # ISO dates compare correctly as strings; the regex fixed the shape.
            if until <= today:
                violations.append(Violation(
                    "waiver-expired", path, idx,
                    f"waiver for '{rule}' expired on {until}; fix the line "
                    "or renew the waiver with a fresh justification"))
                continue
            expiring.append(f"{path.relative_to(root)}:{idx}: "
                            f"'{rule}' waiver expires {until}")
        waived.setdefault(idx, set()).add(rule)
        waived.setdefault(idx + 1, set()).add(rule)
    return waived


def is_waived(waived: dict[int, set[str]], line_no: int, rule: str) -> bool:
    return rule in waived.get(line_no, set())


def lint_file(path: Path, root: Path, violations: list[Violation],
              today: str, expiring: list[str]) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.splitlines()
    waived = collect_waivers(raw_lines, violations, path, today, expiring, root)
    code_lines = strip_comments_and_strings(raw_lines)
    rel = path.relative_to(root).as_posix()

    in_src = rel.startswith("src/")
    in_obs = rel.startswith("src/obs/")
    in_bench = rel.startswith("bench/")
    hot_path = rel in HOT_PATH_FILES

    # -- hot-path-alloc --
    if hot_path:
        for idx, line in enumerate(code_lines, start=1):
            for pat, what in ALLOC_PATTERNS:
                if pat.search(line) and not is_waived(waived, idx, "hot-path-alloc"):
                    violations.append(Violation(
                        "hot-path-alloc", path, idx,
                        f"{what} in hot-path file; route scratch through "
                        "la/workspace.hpp (WorkMatrix / ensure_scratch) or "
                        "add a justified waiver"))

    # -- cout-outside-obs --
    if in_src and not in_obs:
        cout_re = re.compile(r"\bstd::cout\s*<<|(?<![\w:])printf\s*\(")
        for idx, line in enumerate(code_lines, start=1):
            if cout_re.search(line) and not is_waived(waived, idx, "cout-outside-obs"):
                violations.append(Violation(
                    "cout-outside-obs", path, idx,
                    "direct console output outside src/obs; use DFTFE_LOG "
                    "(obs/log.hpp) so levels/sinks/thread-atomicity hold"))

    # -- bench-determinism --
    if in_bench:
        for idx, line in enumerate(code_lines, start=1):
            for pat, what in NONDET_PATTERNS:
                if pat.search(line) and not is_waived(waived, idx, "bench-determinism"):
                    violations.append(Violation(
                        "bench-determinism", path, idx,
                        f"{what} in bench harness; benches must be "
                        "reproducible (fixed seeds via base/rng.hpp, "
                        "steady-clock Timer for measurement)"))

    # -- trace-vocab -- (raw lines: the span name lives inside a string)
    if in_src:
        for idx, line in enumerate(raw_lines, start=1):
            for m in TRACE_SPAN_RE.finditer(line):
                name = m.group(1)
                if name not in TRACE_VOCAB and not is_waived(waived, idx, "trace-vocab"):
                    violations.append(Violation(
                        "trace-vocab", path, idx,
                        f"TraceSpan name '{name}' is not in the paper step "
                        "vocabulary; add it to TRACE_VOCAB in "
                        "tools/lint_invariants.py (a deliberate API "
                        "decision) or fix the name"))

    # -- metric-vocab -- (raw lines: the metric name lives inside a string)
    if in_src:
        for idx, line in enumerate(raw_lines, start=1):
            for m in METRIC_NAME_RE.finditer(line):
                name = m.group(1)
                ok = name in METRIC_VOCAB or name.startswith(METRIC_PREFIXES)
                if not ok and not is_waived(waived, idx, "metric-vocab"):
                    violations.append(Violation(
                        "metric-vocab", path, idx,
                        f"metric name '{name}' is not in the RunReport ledger "
                        "vocabulary; add it to METRIC_VOCAB in "
                        "tools/lint_invariants.py (and to the obs/report.hpp "
                        "ledger parser, a deliberate schema decision) or fix "
                        "the name"))

    # -- tracing-gate --
    if rel.endswith((".hpp", ".cpp", ".h", ".cc")) and (in_src or in_bench or
                                                        rel.startswith("examples/")):
        uses_gate = any("DFTFE_ENABLE_TRACING" in l for l in code_lines)
        if uses_gate and rel != "src/obs/trace.hpp":
            include_line = None
            first_use = None
            for idx, line in enumerate(code_lines, start=1):
                if include_line is None and re.search(
                        r"#\s*include\s*\"obs/trace\.hpp\"", raw_lines[idx - 1]):
                    include_line = idx
                if first_use is None and "DFTFE_ENABLE_TRACING" in line:
                    first_use = idx
            if include_line is None or include_line > (first_use or 0):
                violations.append(Violation(
                    "tracing-gate", path, first_use or 1,
                    "uses DFTFE_ENABLE_TRACING without including "
                    "obs/trace.hpp first; the OFF configuration relies on "
                    "trace.hpp's default-define fallback"))
        if uses_gate:
            for idx, line in enumerate(code_lines, start=1):
                m = re.search(r"#\s*(ifdef|ifndef)\s+DFTFE_ENABLE_TRACING", line)
                if not m:
                    continue
                # Canonical fallback guard: '#ifndef' immediately followed by
                # the default '#define DFTFE_ENABLE_TRACING 1' (trace.hpp).
                is_guard = (m.group(1) == "ifndef" and idx < len(code_lines) and
                            re.search(r"#\s*define\s+DFTFE_ENABLE_TRACING\s+1",
                                      code_lines[idx]))
                if not is_guard and not is_waived(waived, idx, "tracing-gate"):
                    violations.append(Violation(
                        "tracing-gate", path, idx,
                        f"#{m.group(1)} DFTFE_ENABLE_TRACING treats the "
                        "OFF (=0) configuration as ON; use "
                        "'#if DFTFE_ENABLE_TRACING'"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--today", default=None, metavar="YYYY-MM-DD",
                        help="override the waiver-expiry reference date (tests)")
    args = parser.parse_args()
    root = args.root.resolve()
    today = args.today or datetime.date.today().isoformat()

    files: list[Path] = []
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for glob in CXX_GLOBS:
            files.extend(sorted(base.glob(glob)))

    violations: list[Violation] = []
    expiring: list[str] = []
    for path in files:
        lint_file(path, root, violations, today, expiring)

    if expiring:
        print(f"lint_invariants: {len(expiring)} dated waiver(s) pending expiry:")
        for entry in sorted(expiring):
            print("  " + entry)

    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)\n", file=sys.stderr)
        for v in violations:
            print("  " + v.render(root), file=sys.stderr)
        print("\nSee tools/lint_invariants.py docstring for the rule "
              "definitions and the waiver syntax.", file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
