// Tests for the hot-path workspace layer (la/workspace.hpp) and the fused /
// restructured kernels that ride on it:
//
//  * WorkMatrix / ensure_scratch allocation accounting,
//  * the steady-state zero-allocation invariant of the SCF hot path
//    (Hamiltonian applies, full ChFES cycles and Poisson solves after
//    warmup), and the rank-engine lanes' working-set gauge,
//  * equivalence of the fused Chebyshev apply epilogue with the plain apply,
//  * equivalence of the public pointer-rotating filter() with a reference
//    three-term recurrence built from plain applies,
//  * equivalence of the sum-factorized cell apply (three strided-batched GEMM
//    contractions) with the scalar sum-factorization loop nest,
//  * equivalence of the Hermitian-mirrored (half-triangle) overlap with the
//    full A^H B product, in both FP64 and mixed-precision modes,
//  * FLOP accounting: degenerate GEMM calls (k = 0 or alpha = 0) charge zero.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "base/flops.hpp"
#include "base/timer.hpp"
#include "dd/engine.hpp"
#include "fe/cell_ops.hpp"
#include "fe/poisson.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/iterative.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Counting global operator new: the metrics zero-allocation suite asserts
// that string_view lookups on warmed registry keys never allocate (the
// transparent-comparator invariant of obs::MetricsRegistry). Disabled under
// ASan/TSan, whose interceptors own the allocator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DFTFE_COUNT_GLOBAL_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DFTFE_COUNT_GLOBAL_NEW 0
#else
#define DFTFE_COUNT_GLOBAL_NEW 1
#endif
#else
#define DFTFE_COUNT_GLOBAL_NEW 1
#endif

namespace {
std::atomic<std::int64_t> g_global_new_calls{0};
}  // namespace

#if DFTFE_COUNT_GLOBAL_NEW
void* operator new(std::size_t sz) {
  g_global_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) {
  g_global_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
// noinline: GCC 12 otherwise inlines these into deletes of objects from
// `new` (gtest's test factories) and flags the new/free pair with
// -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace dftfe {
namespace {

// ---------- workspace primitives ----------

TEST(Workspace, WorkMatrixCountsOnlyHighWaterGrowth) {
  la::WorkspaceCounters::reset();
  la::WorkMatrix<double> wm;
  wm.acquire(8, 8);
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 1);
  EXPECT_EQ(la::WorkspaceCounters::bytes_allocated(),
            static_cast<std::int64_t>(64 * sizeof(double)));
  wm.acquire(4, 16);  // same total size: reshape only
  wm.acquire(2, 3);   // smaller: reshape only
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 1);
  EXPECT_EQ(la::WorkspaceCounters::checkouts(), 3);
  wm.acquire(16, 8);  // grows past the high-water mark
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 2);
}

TEST(Workspace, WorkMatrixHighWaterBytes) {
  la::WorkMatrix<double> wm;
  EXPECT_EQ(wm.highwater_bytes(), 0);
  wm.acquire(8, 8);
  wm.acquire(4, 4);  // shrink: high-water unchanged
  EXPECT_EQ(wm.highwater(), 64);
  EXPECT_EQ(wm.highwater_bytes(), static_cast<std::int64_t>(64 * sizeof(double)));
}

TEST(Workspace, WorkMatrixSwapRotatesWithoutAllocating) {
  // The ChFES rotation: gemm into the work buffer, then swap it with the
  // subspace; the work buffer keeps the old storage for the next cycle.
  la::WorkMatrix<double> wm;
  la::Matrix<double> X(6, 3);
  X.fill(1.0);
  const double* old_storage = X.data();
  la::WorkspaceCounters::reset();
  wm.acquire(6, 3).fill(2.0);
  wm.swap(X);
  EXPECT_EQ(X(5, 2), 2.0);
  EXPECT_EQ(wm.get().data(), old_storage);
  wm.acquire(6, 3);  // same size as the swapped-in storage: no growth
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 1);
  EXPECT_EQ(wm.highwater(), 18);
}

TEST(Workspace, EnsureScratchGrowOnly) {
  std::vector<float> v;
  la::WorkspaceCounters::reset();
  la::ensure_scratch(v, 100);
  la::ensure_scratch(v, 50);  // no-op: already large enough
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 1);
  la::ensure_scratch(v, 200);
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 2);
  EXPECT_EQ(v.size(), 200u);
}

// ---------- FLOP accounting on degenerate GEMMs (satellite fix) ----------

TEST(Workspace, DegenerateGemmChargesZeroFlops) {
  la::MatrixD A(8, 8), B(8, 8), C(8, 8);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = 0.5;
  FlopCounter::global().clear();
  la::gemm('N', 'N', 0.0, A, B, 1.0, C);  // alpha = 0: scaling only
  EXPECT_EQ(FlopCounter::global().total(), 0.0);
  la::gemm_strided_batched<double>('N', 'N', 8, 8, 0, 1.0, A.data(), 8, 0, B.data(), 8, 0,
                                   1.0, C.data(), 8, 0, 4);  // k = 0
  EXPECT_EQ(FlopCounter::global().total(), 0.0);
  la::gemm('N', 'N', 1.0, A, B, 0.0, C);
  EXPECT_GT(FlopCounter::global().total(), 0.0);
  FlopCounter::global().clear();
}

// ---------- shared fixtures ----------

ks::Hamiltonian<double> make_hamiltonian(const fe::DofHandler& dofh) {
  ks::Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) {
    const auto p = dofh.dof_point(i);
    v[i] = -0.5 + 0.05 * std::sin(p[0]) * std::cos(p[1] + 0.3 * p[2]);
  }
  H.set_potential(std::move(v));
  return H;
}

// ---------- fused apply equivalence ----------

TEST(Workspace, FusedApplyMatchesPlainApplyComposition) {
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 2, true);
  const fe::DofHandler dofh(mesh, 3);
  auto H = make_hamiltonian(dofh);
  const index_t n = dofh.ndofs(), B = 5;
  la::MatrixD X(n, B), Z(n, B), Y, R;
  for (index_t i = 0; i < X.size(); ++i) {
    X.data()[i] = std::sin(0.017 * i);
    Z.data()[i] = std::cos(0.011 * i);
  }
  const double c = 0.37, scale = 1.9, zc = 0.81;

  H.apply(X, R);  // R = H X
  la::MatrixD expect(n, B);
  for (index_t j = 0; j < B; ++j)
    for (index_t i = 0; i < n; ++i)
      expect(i, j) = scale * (R(i, j) - c * X(i, j)) - zc * Z(i, j);

  H.apply_fused(X, Y, c, scale, &Z, zc);
  ASSERT_EQ(Y.rows(), n);
  ASSERT_EQ(Y.cols(), B);
  for (index_t i = 0; i < Y.size(); ++i)
    EXPECT_NEAR(Y.data()[i], expect.data()[i], 1e-11) << "entry " << i;

  // Z omitted: Y = scale (H X - c X).
  H.apply_fused(X, Y, c, scale, nullptr, 0.0);
  for (index_t j = 0; j < B; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(Y(i, j), scale * (R(i, j) - c * X(i, j)), 1e-11);
}

// ---------- filter equivalence ----------

TEST(Workspace, FilterMatchesReferenceChebyshevRecurrence) {
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 2, true);
  const fe::DofHandler dofh(mesh, 3);
  auto H = make_hamiltonian(dofh);
  ks::ChfesOptions opt;
  opt.cheb_degree = 7;
  opt.block_size = 3;  // exercise the column-block loop (nstates not divisible)
  ks::ChebyshevFilteredSolver<double> solver(H, 7, opt);
  solver.initialize_random(11);
  const double a = 2.0, b = 40.0, a0 = -1.0;
  solver.set_bounds(a, b, a0);
  const la::MatrixD X0 = solver.subspace();  // copy before filtering

  solver.filter();
  const la::MatrixD& F = solver.subspace();

  // Reference: the scaled-and-shifted three-term recurrence (Zhou et al.)
  // written with plain applies and explicit temporaries.
  const double e = (b - a) / 2.0, c = (b + a) / 2.0;
  double sigma = e / (a0 - c);
  const double sigma1 = sigma;
  la::MatrixD Xk = X0, Yk(X0.rows(), X0.cols()), Hx;
  H.apply(Xk, Hx);
  for (index_t i = 0; i < Xk.size(); ++i)
    Yk.data()[i] = (Hx.data()[i] - c * Xk.data()[i]) * (sigma1 / e);
  for (int k = 2; k <= opt.cheb_degree; ++k) {
    const double sigma2 = 1.0 / (2.0 / sigma1 - sigma);
    H.apply(Yk, Hx);
    la::MatrixD Yn(X0.rows(), X0.cols());
    for (index_t i = 0; i < Xk.size(); ++i)
      Yn.data()[i] = (Hx.data()[i] - c * Yk.data()[i]) * (2.0 * sigma2 / e) -
                     (sigma * sigma2) * Xk.data()[i];
    Xk = Yk;
    Yk = Yn;
    sigma = sigma2;
  }

  ASSERT_EQ(F.rows(), Yk.rows());
  ASSERT_EQ(F.cols(), Yk.cols());
  double scale = 0.0;
  for (index_t i = 0; i < Yk.size(); ++i) scale = std::max(scale, std::abs(Yk.data()[i]));
  for (index_t i = 0; i < F.size(); ++i)
    EXPECT_NEAR(F.data()[i], Yk.data()[i], 1e-10 * scale) << "entry " << i;
}

// ---------- sum-factorization equivalence ----------

TEST(Workspace, SumFactorizedApplyMatchesScalarReference) {
  // p = 4: apply_add sum-factorizes. Both applies add into the same nonzero
  // output, on a periodic and an isolated mesh.
  for (const bool periodic : {true, false}) {
    const fe::Mesh mesh = fe::make_uniform_mesh(5.0, 2, periodic);
    const fe::DofHandler dofh(mesh, 4);
    fe::CellStiffness<double> K(dofh, 0.5);
    ASSERT_TRUE(K.sum_factorized());
    const index_t n = dofh.ndofs(), B = 3;
    la::MatrixD X(n, B), Ys(n, B), Yg(n, B);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.013 * i + 0.2);
    for (index_t i = 0; i < n * B; ++i) Ys.data()[i] = Yg.data()[i] = 0.1 * std::cos(0.07 * i);

    K.apply_add_sumfac_scalar(X, Ys);
    K.apply_add(X, Yg);

    double scale = 0.0;
    for (index_t i = 0; i < Ys.size(); ++i) scale = std::max(scale, std::abs(Ys.data()[i]));
    for (index_t i = 0; i < Ys.size(); ++i)
      EXPECT_NEAR(Yg.data()[i], Ys.data()[i], 1e-13 * scale) << "entry " << i;
  }
}

// ---------- Hermitian-mirrored overlap equivalence ----------

TEST(Workspace, HermitianOverlapMatchesFullProductReal) {
  const index_t n = 60, N = 23;  // N not a multiple of the block size
  la::MatrixD A(n, N), S, Sref(N, N);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = std::sin(0.37 * i) + 0.1;
  la::gemm('C', 'N', 1.0, A, A, 0.0, Sref);

  la::overlap_hermitian_mixed(A, A, S, /*mp_block=*/8, /*mixed=*/false);
  ASSERT_EQ(S.rows(), N);
  ASSERT_EQ(S.cols(), N);
  for (index_t i = 0; i < S.size(); ++i)
    EXPECT_NEAR(S.data()[i], Sref.data()[i], 1e-11) << "entry " << i;

  la::overlap_hermitian_mixed(A, A, S, /*mp_block=*/8, /*mixed=*/true);
  double scale = 0.0;
  for (index_t i = 0; i < Sref.size(); ++i)
    scale = std::max(scale, std::abs(Sref.data()[i]));
  for (index_t j = 0; j < N; ++j)
    for (index_t i = 0; i < N; ++i) {
      // FP32 off-diagonal blocks: looser tolerance; exact symmetry always.
      EXPECT_NEAR(S(i, j), Sref(i, j), 1e-5 * scale);
      EXPECT_EQ(S(i, j), S(j, i));
    }
}

TEST(Workspace, HermitianOverlapMatchesFullProductComplex) {
  const index_t n = 40, N = 11;
  la::MatrixZ A(n, N), B(n, N), S, Sref(N, N);
  for (index_t i = 0; i < A.size(); ++i) {
    A.data()[i] = complex_t(std::sin(0.31 * i), std::cos(0.19 * i));
    B.data()[i] = A.data()[i] * complex_t(1.0, 1e-3);  // near-Hermitian S
  }
  la::gemm('C', 'N', complex_t(1), A, B, complex_t(0), Sref);
  la::overlap_hermitian_mixed(A, B, S, /*mp_block=*/4, /*mixed=*/false);
  double scale = 0.0;
  for (index_t i = 0; i < Sref.size(); ++i)
    scale = std::max(scale, std::abs(Sref.data()[i]));
  for (index_t j = 0; j < N; ++j)
    for (index_t i = 0; i < N; ++i) {
      // The mirror assumes S Hermitian: off-triangle entries are conj
      // transposes, so compare against the Hermitian part of the reference.
      const complex_t herm =
          0.5 * (Sref(i, j) + std::conj(Sref(j, i)));
      EXPECT_NEAR(std::abs(S(i, j) - herm), 0.0, 2e-3 * scale);
    }
}

// ---------- zero-allocation steady state ----------

TEST(Workspace, HamiltonianApplyIsAllocationFreeAfterWarmup) {
  // p = 3 applies dense cell matrices, p = 4 sum-factorizes.
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 2, true);
  for (int p : {3, 4}) {
    const fe::DofHandler dofh(mesh, p);
    auto H = make_hamiltonian(dofh);
    const index_t n = dofh.ndofs();
    la::MatrixD X(n, 6), Y;
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.02 * i);
    la::MatrixD xv(n, 1), yv;  // one column: the Lanczos-bound apply
    xv.fill(0.5);

    H.apply(X, Y);  // warmup: persistent buffers size themselves
    H.apply(xv, yv);
    la::WorkspaceCounters::reset();
    for (int it = 0; it < 4; ++it) {
      H.apply(X, Y);
      H.apply(xv, yv);
    }
    EXPECT_EQ(la::WorkspaceCounters::allocations(), 0)
        << "steady-state Hamiltonian applies must not touch the heap, p=" << p;
    EXPECT_GT(la::WorkspaceCounters::checkouts(), 0);
  }
}

TEST(Workspace, ChfesCycleIsAllocationFreeAfterWarmup) {
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 2, true);
  const fe::DofHandler dofh(mesh, 3);
  auto H = make_hamiltonian(dofh);
  ks::ChfesOptions opt;
  opt.cheb_degree = 6;
  opt.block_size = 4;
  const index_t n = dofh.ndofs(), N = 8;
  ks::ChebyshevFilteredSolver<double> solver(H, N, opt);
  solver.initialize_random(7);

  // Warmup: two cycles (the first takes the cold-bounds branch; the second
  // the Ritz-value branch), sizing every persistent buffer.
  solver.cycle();
  solver.cycle();
  la::WorkspaceCounters::reset();
  for (int it = 0; it < 3; ++it) solver.cycle();
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 0)
      << "steady-state ChFES cycles must check out zero fresh heap buffers";
  EXPECT_GT(la::WorkspaceCounters::checkouts(), 0);
  // The CholGS/RR scratch is one n x N block plus two N x N matrices, and
  // the Lanczos bound's three n x 1 blocks.
  EXPECT_EQ(solver.scratch_highwater_bytes(),
            static_cast<std::int64_t>((n * N + 2 * N * N + 3 * n) * sizeof(double)));
}

TEST(Workspace, LanczosBoundAllocatesNothingWhenWarm) {
#if !DFTFE_COUNT_GLOBAL_NEW
  GTEST_SKIP() << "global operator new counting disabled under sanitizers";
#else
  // A dense symmetric operator applied on n x 1 blocks by plain loops.
  const index_t n = 96;
  la::MatrixD A(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) A(i, j) = A(j, i) = std::sin(0.37 * (i + 1) * (j + 2));
  auto apply = [&A, n](const la::MatrixD& X, la::MatrixD& Y) {
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (index_t j = 0; j < n; ++j) s += A(i, j) * X(j, 0);
      Y(i, 0) = s;
    }
  };
  la::MatrixD V(n, 1), Vprev(n, 1), W(n, 1);
  const double warm = la::lanczos_upper_bound<double>(apply, V, Vprev, W, 14);
  const std::int64_t before = g_global_new_calls.load(std::memory_order_relaxed);
  const double bound = la::lanczos_upper_bound<double>(apply, V, Vprev, W, 14);
  const std::int64_t after = g_global_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "a warm Lanczos bound must not touch the heap";
  EXPECT_EQ(bound, warm);  // same seed, same operator: the same bound
  // Still a bound: the diagonal entries are Rayleigh quotients of A.
  double rq = 0.0;
  for (index_t i = 0; i < n; ++i) rq = std::max(rq, A(i, i));
  EXPECT_GE(bound, rq);
#endif
}

TEST(Workspace, PoissonSolveAllocatesNothingWhenWarm) {
#if !DFTFE_COUNT_GLOBAL_NEW
  GTEST_SKIP() << "global operator new counting disabled under sanitizers";
#else
  // The right-hand side, the CG unknown and the Dirichlet lift live in the
  // solver. The fewest calls over four warm solves must be 0: a solve may
  // still grow the metrics series or the trace buffer geometrically.
  for (const bool periodic : {false, true}) {
    const fe::Mesh mesh = fe::make_uniform_mesh(10.0, 5, periodic);
    const fe::DofHandler dofh(mesh, 4);
    const fe::PoissonSolver poisson(dofh);
    std::vector<double> rho(static_cast<std::size_t>(dofh.ndofs())), phi;
    for (index_t i = 0; i < dofh.ndofs(); ++i) {
      const auto p = dofh.dof_point(i);
      const double r2 = (p[0] - 4.0) * (p[0] - 4.0) + (p[1] - 5.0) * (p[1] - 5.0) +
                        (p[2] - 6.0) * (p[2] - 6.0);
      rho[static_cast<std::size_t>(i)] = std::exp(-r2);
    }
    poisson.solve(rho, phi);  // sizes phi and the CG's blocks
    std::int64_t fewest = -1;
    for (int it = 0; it < 4; ++it) {
      for (double& v : rho) v *= 1.05;  // a new charge: the CG iterates again
      const std::int64_t before = g_global_new_calls.load(std::memory_order_relaxed);
      const la::SolveReport rep = poisson.solve(rho, phi);
      const std::int64_t calls = g_global_new_calls.load(std::memory_order_relaxed) - before;
      EXPECT_TRUE(rep.converged);
      EXPECT_GT(rep.iterations, 0);
      fewest = fewest < 0 ? calls : std::min(fewest, calls);
    }
    EXPECT_EQ(fewest, 0) << (periodic ? "periodic" : "isolated")
                         << " warm Poisson solve touched the heap";
  }
#endif
}

TEST(Workspace, LaneHighwaterCountsBothCellOperators) {
  // An isolated 4^3-cell mesh on a {2,1,1} grid: each lane's brick is 2 x 4
  // x 4 cells, one layer of interface cells and one of interior cells, so
  // both of its cell operators hold cells. p = 2 applies dense cell
  // matrices, p = 4 sum-factorizes; both hold two chunks per operator.
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 4, false);
  for (const index_t p : {2, 4}) {
    const fe::DofHandler dofh(mesh, static_cast<int>(p));
    dd::BackendOptions opt;
    opt.grid = {2, 1, 1};
    opt.nlanes = 2;
    opt.wire = dd::Wire::fp64;
    dd::RankEngine<double> eng(dofh, opt);
    eng.set_potential(std::vector<double>(static_cast<std::size_t>(dofh.ndofs()), -0.5));
    const index_t B = 6;
    la::MatrixD X(dofh.ndofs(), B), Y;
    X.fill(0.25);
    eng.apply(X, Y);
    // Per lane: the scaled input, the gathered input and the result
    // (nloc x B each), and the gather and scatter chunks of the interface
    // and the interior operator (nd x 16 cells x B each).
    const index_t nloc = (2 * p + 1) * (4 * p + 1) * (4 * p + 1), nd = (p + 1) * (p + 1) * (p + 1);
    const index_t chunk_cells = 16;
    const std::int64_t expect =
        static_cast<std::int64_t>((3 * nloc * B + 2 * 2 * nd * chunk_cells * B) * sizeof(double));
    for (int r = 0; r < eng.nlanes(); ++r)
      EXPECT_EQ(obs::MetricsRegistry::global().gauge("mem.lane" + std::to_string(r) +
                                                     ".highwater_bytes"),
                static_cast<double>(expect))
          << "lane " << r << ", p=" << p;
  }
}

TEST(Workspace, WarmEngineStagesCallOperatorNewZeroTimes) {
#if !DFTFE_COUNT_GLOBAL_NEW
  GTEST_SKIP() << "global operator new counting disabled under sanitizers";
#else
  // Every engine stage hands its lanes a borrowed body, so once the lanes'
  // workspace, the wire and the metric keys are warm a job allocates
  // nothing. Tracing is off: the recorder's event buffer grows by design.
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  const bool tracing = rec.enabled();
  rec.set_enabled(false);
  // p = 2 applies dense cell matrices, p = 4 sum-factorizes.
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 4, true);
  for (int p : {2, 4}) {
    const fe::DofHandler dofh(mesh, p);
    dd::BackendOptions opt;
    opt.nlanes = 4;  // the default FP32 wire: a mixed overlap takes the gram wire
    dd::RankEngine<double> eng(dofh, opt);
    const index_t n = dofh.ndofs(), N = 6;
    eng.set_potential(std::vector<double>(static_cast<std::size_t>(n), -0.3));
    la::MatrixD X0(n, N), X(n, N), Y, S;
    for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.37 * i);
    const std::vector<double> occ(static_cast<std::size_t>(N), 2.0);
    std::vector<double> rho(static_cast<std::size_t>(n), 0.0);
    // A fresh copy each rep: refiltering one block on a fixed [a, b] would
    // overflow it within a few reps.
    auto stages = [&] {
      std::copy(X0.data(), X0.data() + X0.size(), X.data());
      eng.filter_block(X, 0, N, 4, -0.2, 2.5, -1.1);
      eng.apply(X, Y);
      eng.overlap(X, X, S, /*mp_block=*/2, /*mixed=*/true);
      eng.accumulate_density(X, occ, 1.0, rho);
    };
    stages();
    const std::int64_t before = g_global_new_calls.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 3; ++rep) stages();
    const std::int64_t calls = g_global_new_calls.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(calls, 0) << "warm engine stages touched the heap, p=" << p;
  }
  rec.set_enabled(tracing);
#endif
}

// ---------- metrics and profile registries: zero-alloc string_view lookups ----------

TEST(Workspace, MetricsMutatorsAllocationFreeOnWarmKeys) {
#if !DFTFE_COUNT_GLOBAL_NEW
  GTEST_SKIP() << "global operator new counting disabled under sanitizers";
#else
  auto& m = obs::MetricsRegistry::global();
  auto& prof = ProfileRegistry::global();
  // Warm the keys: the first touch of each name allocates its map node.
  m.counter_add("zat.counter", 1);
  m.gauge_set("zat.gauge", 0.0);
  prof.add("zat.hist", 1e-3);

  const std::int64_t before = g_global_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    // string_view arguments: the transparent comparator must resolve the
    // existing keys without materializing a std::string.
    m.counter_add(std::string_view("zat.counter"), 2);
    m.gauge_set(std::string_view("zat.gauge"), 0.5 * i);
    prof.add(std::string_view("zat.hist"), 1e-6 * (i + 1));
  }
  const std::int64_t after = g_global_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "metric mutators on existing keys must not touch the heap";
  EXPECT_EQ(m.counter("zat.counter"), 1 + 2 * 1000);
  EXPECT_EQ(prof.find("zat.hist")->count, 1001);
#endif
}

}  // namespace
}  // namespace dftfe
