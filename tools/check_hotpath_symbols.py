#!/usr/bin/env python3
"""Binary-level hot-path verification: no unreviewed allocation or throw.

The per-ISA GEMM kernel objects are held to more: no allocation, throw or
libgcc complex product/quotient (__mul[sd]c3, __div[sd]c3) at all.

The source-level hot-path-alloc lint rule (tools/lint_invariants.py) polices
what the code *says*; this check polices what the compiler *emitted*. It
disassembles the designated hot-path translation units of a Release build and
attributes every relocation against an allocation or exception-throw symbol
(operator new, __cxa_throw, __cxa_allocate_exception, __cxa_rethrow) to the
function that carries it. Each such function must match a whitelist entry
that names why the reference is acceptable — cold control plane, amortized
workspace warmup, or a deliberate hard-fail throw. An unlisted reference
fails the check, so a heap call or throw sneaking into a lane-side loop
through inlining is caught at the binary level even when the source-level
lint cannot see it (e.g. growth hidden behind a helper in another header).

Run from the build tree (registered as the `hotpath_symbols` ctest for
Release builds without sanitizers — instrumentation rewrites allocation and
attribution wholesale):

    python3 tools/check_hotpath_symbols.py --build-dir build

The whitelist is a ratchet, not an escape hatch: entries are reviewed like
lint waivers, and an entry naming one of this repo's hot functions that
stops matching anything is reported so the list cannot fossilize (library
helpers are exempt; see LIBRARY_HELPERS).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# The per-ISA GEMM micro-kernel objects (la/gemm_kernel.hpp). No whitelist
# entry covers them, and they must not call the libgcc complex product or
# quotient either: their complex arithmetic is split real/imaginary lanes.
KERNEL_TUS = [
    ("la/gemm_sse2.cpp", "dftfe_la.dir/la/gemm_sse2.cpp.o"),
    ("la/gemm_avx2.cpp", "dftfe_la.dir/la/gemm_avx2.cpp.o"),
    ("la/gemm_avx512.cpp", "dftfe_la.dir/la/gemm_avx512.cpp.o"),
]

# Hot-path translation units: object path fragment under <build>/src.
HOT_TUS = [
    ("la/cholesky.cpp", "dftfe_la.dir/la/cholesky.cpp.o"),
    ("la/eig.cpp", "dftfe_la.dir/la/eig.cpp.o"),
    ("ks/scf.cpp", "dftfe_ks.dir/ks/scf.cpp.o"),
    ("dd/engine.cpp", "dftfe_dd.dir/dd/engine.cpp.o"),
    ("fe/cell_ops.cpp", "dftfe_fe.dir/fe/cell_ops.cpp.o"),
] + KERNEL_TUS

# Symbols whose presence in a hot function needs a reviewed justification.
ALLOC_SYMS = re.compile(
    r"^(_Znwm|_Znam|_ZnwmSt11align_val_t|_ZnamSt11align_val_t|malloc|calloc|realloc)$")
THROW_SYMS = re.compile(r"^(__cxa_throw|__cxa_rethrow|__cxa_allocate_exception)$")
COMPLEX_SYMS = re.compile(r"^__(mul|div)[sd]c3$")

FUNC_HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
RELOC = re.compile(r"R_X86_64_(?:PLT32|PC32|32S?|64|GOTPCRELX?|REX_GOTPCRELX)"
                   r"\s+(\S+?)(?:[-+]0x[0-9a-f]+)?$")

# Each entry: (regex over the demangled function name, {"alloc","throw"},
# reason). A function carrying a banned reference must match an entry that
# covers every symbol class it references. Matching is done on the demangled
# name with any " [clone ...]" suffix stripped, so .constprop/.isra/.cold
# clones inherit their parent's entry.
#
# The whitelist has two groups. LIBRARY_HELPERS name templates and
# publishers that hot code calls: whether GCC emits one of them out of line
# in a given object depends on inlining decisions that unrelated edits
# change, so an entry can match nothing in one build and something in the
# next (la::gemm< in ks/scf.cpp was once pruned as stale, then restored).
# These entries are never reported as stale; what they allow is amortized
# by design, and their call sites are what the source-level hot-path-alloc
# rule and the HOT_FUNCTIONS entries police. HOT_FUNCTIONS name this repo's
# own hot functions: one that matches nothing means the function is gone or
# renamed, and is reported so the list cannot fossilize.
LIBRARY_HELPERS = [
    # -- instantiated library helpers ------------------------------------
    (r"^(std::|__gnu_cxx::|void std::|.* std::_Rb_tree)", {"alloc", "throw"},
     "std template helper emitted into this TU; its call sites are what the "
     "source-level hot-path-alloc rule polices"),
    # -- sanctioned workspace layer --------------------------------------
    (r"dftfe::la::(WorkMatrix<|ensure_scratch<)", {"alloc"},
     "la/workspace.hpp is the sanctioned allocation layer: first-touch "
     "growth, amortized to zero in steady state (asserted by the "
     "mem.workspace.allocations gauge in tests)"),
    # -- observability publishers ----------------------------------------
    (r"dftfe::obs::(LogMessage|MetricsRegistry)", {"alloc"},
     "log/metrics publishers keep string-keyed maps; called from cold "
     "control flow and per-job publication, never per-element loops"),
    (r"dftfe::FlopCounter::add", {"alloc", "throw"},
     "flop ledger map insert; amortized after the first step of each kind"),
    # -- la kernels with first-use scratch -------------------------------
    (r"dftfe::la::gemm<", {"alloc"},
     "first use of the per-thread GEMM packing panels (la/blas.hpp "
     "pack_panel_a/b, ensure_scratch inlined at -O3): once per thread and "
     "scalar type, zero in steady state; emitted out of line wherever the "
     "caller does not inline the GEMM driver"),
    (r"dftfe::la::(gemm_low_precision<|overlap_hermitian_partial<)",
     {"alloc", "throw"},
     "mixed-precision wire scratch via ensure_scratch (inlined at -O3) and "
     "OpenMP-region exception replay; steady-state allocation-free"),
]

HOT_FUNCTIONS = [
    # -- LAPACK-style factorization/eig kernels --------------------------
    (r"dftfe::la::(cholesky_lower<|invert_lower_triangular<|symmetric_eig|"
     r"hermitian_eig<)", {"alloc", "throw"},
     "entry-time scratch sizing plus breakdown throw; once per call, "
     "outside the blocked inner loops"),
    # -- SCF driver control plane ----------------------------------------
    (r"dftfe::ks::KohnShamDFT<", {"alloc", "throw"},
     "SCF control plane: per-solve setup, density/potential vectors sized "
     "per iteration, result publication; the per-element loops live in "
     "ks/hamiltonian.hpp and la/ kernels"),
    (r"dftfe::ks::(ChebyshevFilteredSolver<|ChfesOptions::validate)", {"alloc", "throw"},
     "solver stage drivers: workspace warmup plus the orthonormalization "
     "breakdown hard-fail, per-cycle, not per-element; and the options "
     "check at construction"),
    # -- FE cell operator (every Poisson CG iteration, KS apply and lane) --
    (r"dftfe::fe::CellStiffness<.*>::CellStiffness\(|"
     r"dftfe::fe::\(anonymous namespace\)::all_cells", {"alloc", "throw"},
     "cell operator construction, once per operator: the slot map, the "
     "geometry groups and their operators, and the argument throws (bad cell "
     "id, k-point on a real operator)"),
    (r"dftfe::fe::CellStiffness<.*>::apply_add\(", {"alloc", "throw"},
     "grow-only WorkMatrix acquires of the gather/scatter chunks and the "
     "single-vector blocks, inlined at -O3: zero after the first apply of "
     "each width (asserted by Workspace.HamiltonianApplyIsAllocationFreeAfterWarmup "
     "and Workspace.PoissonSolveAllocatesNothingWhenWarm); lint_invariants "
     "polices the source for any other growth. The sum-factorized apply's "
     "one FLOP charge inlines FlopCounter::add's step-map insert (and its "
     "rethrow), amortized after the first apply of each step"),
    (r"dftfe::fe::CellStiffness<.*>::apply_add_sumfac_scalar", {"alloc", "throw"},
     "the tests' scalar reference: per-thread cell vectors on every call and "
     "the throw on a Bloch operator; no solver calls it"),
    # -- threaded rank engine --------------------------------------------
    (r"dftfe::dd::RankEngine<.*>::(build_lanes|start_lanes|publish_job_metrics|submit|"
     r"set_potential|debug_fault_pcg)|dftfe::dd::\(anonymous namespace\)::push_run<",
     {"alloc", "throw"},
     "engine cold control plane: construction (run lists included), job "
     "submission, metrics publication (the engine's owning thread, between "
     "jobs)"),
    (r"dftfe::dd::RankEngine<.*>::((apply|overlap|accumulate_density|filter_block|pcg|"
     r"debug_fault|lane_main)\(|run_lanes<)", {"alloc", "throw"},
     "the stages, the bodies they hand their lanes, and the one path between "
     "(run_lanes, lane_main): precondition throws, the drift-budget hard-fail "
     "and the rethrow of a lane's job error (at most once per job), grow-only "
     "wire and step-storage sizing before a job, and the bodies' workspace "
     "acquires (gathered gram panels, partial Gram, pcg vectors) inlined at "
     "-O3, zero after the first job of each shape"),
    (r"dftfe::dd::RankEngine<.*>::(post_halo|recv_halo)", {"throw"},
     "mailbox poison propagation (a peer lane failed) — the very protocol "
     "paths tools/model_check explores; throws at most once per failed job"),
    (r"dftfe::dd::RankEngine<.*>::(LaneCg::apply|lane_allreduce)|"
     r"dftfe::la::pcg<.*RankEngine<.*>::LaneCg>", {"alloc", "throw"},
     "lane-resident PCG (la::pcg over the LaneCg policy): the reduction "
     "barrier's poison throw — a peer lane failed, the cascade the allreduce "
     "model-check scenarios explore — and the injected-fault test hook in the "
     "policy's apply, each at most once per failed job; workspace growth "
     "inlined from the policy's apply, zero after the first solve (asserted "
     "by LanePcg.WarmSolveAllocatesNothing)"),
    (r"dftfe::dd::LaneAllreduce::(allreduce|init)", {"alloc", "throw"},
     "lane allreduce barrier: poison throw when a peer lane failed (at most "
     "once per failed job) and the cold slot sizing in init()"),
]

WHITELIST = LIBRARY_HELPERS + HOT_FUNCTIONS

COMPILED = [(re.compile(pat), syms, reason) for pat, syms, reason in WHITELIST]


def demangle(names: list[str]) -> dict[str, str]:
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


def scan_object(obj: Path, banned: re.Pattern | None = None) -> dict[str, set[str]]:
    """Map mangled function name -> set of banned symbols it references
    (allocation and throw symbols, plus any that match `banned`)."""
    out = subprocess.run(["objdump", "-dr", "--no-show-raw-insn", str(obj)],
                         capture_output=True, text=True, check=True).stdout
    refs: dict[str, set[str]] = defaultdict(set)
    current = None
    for line in out.splitlines():
        m = FUNC_HEADER.match(line)
        if m:
            current = m.group(1)
            continue
        m = RELOC.search(line)
        if m and current:
            sym = m.group(1)
            if (ALLOC_SYMS.match(sym) or THROW_SYMS.match(sym)
                    or (banned is not None and banned.match(sym))):
                refs[current].add(sym)
    return refs


def classify(sym: str) -> str:
    return "alloc" if ALLOC_SYMS.match(sym) else "throw"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, required=True,
                        help="CMake build directory holding the objects")
    parser.add_argument("--verbose", action="store_true",
                        help="print every whitelisted reference too")
    args = parser.parse_args()

    violations: list[str] = []
    matched_entries: set[int] = set()
    checked = 0

    for tu, frag in HOT_TUS:
        obj = args.build_dir / "src" / "CMakeFiles" / frag
        if not obj.is_file():
            print(f"error: missing object for {tu}: {obj}", file=sys.stderr)
            return 2
        kernel = (tu, frag) in KERNEL_TUS
        refs = scan_object(obj, COMPLEX_SYMS if kernel else None)
        names = demangle(sorted(refs))
        checked += 1
        for mangled in sorted(refs):
            dem = re.sub(r"\s*\[clone [^\]]*\]$", "", names[mangled])
            if kernel:
                violations.append(f"{tu}: {dem}\n      references "
                                  f"{', '.join(sorted(refs[mangled]))} (GEMM kernel object)")
                continue
            need = {classify(s) for s in refs[mangled]}
            covered: set[str] = set()
            for idx, (pat, syms, _reason) in enumerate(COMPILED):
                if pat.search(dem):
                    matched_entries.add(idx)
                    covered |= syms & need
            missing = need - covered
            if missing:
                syms = ", ".join(sorted(refs[mangled]))
                violations.append(
                    f"{tu}: {dem}\n      references {syms} "
                    f"(unwhitelisted class: {', '.join(sorted(missing))})")
            elif args.verbose:
                print(f"ok: {tu}: {dem} [{', '.join(sorted(need))}]")

    stale = [WHITELIST[i][0] for i in range(len(LIBRARY_HELPERS), len(WHITELIST))
             if i not in matched_entries]
    if stale:
        print(f"check_hotpath_symbols: {len(stale)} whitelist entr(y/ies) "
              "matched nothing (toolchain drift or dead entry — prune or "
              "re-justify):")
        for pat in stale:
            print(f"  {pat}")

    if violations:
        print(f"check_hotpath_symbols: {len(violations)} unreviewed "
              "alloc/throw reference(s) in hot-path objects\n", file=sys.stderr)
        for v in violations:
            print("  " + v, file=sys.stderr)
        print("\nEither move the allocation/throw out of the hot function, "
              "route scratch through la/workspace.hpp, or add a reviewed "
              "WHITELIST entry in tools/check_hotpath_symbols.py with the "
              "reason the reference is cold or amortized. GEMM kernel objects take "
              "no whitelist entry: keep their complex arithmetic in split real and "
              "imaginary lanes.", file=sys.stderr)
        return 1
    print(f"check_hotpath_symbols: OK ({checked} hot-path objects verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
