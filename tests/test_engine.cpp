// Tests for the threaded multi-rank brick engine (dd/engine.hpp): equivalence
// of the real sync/async execution against the undecomposed reference path
// (Hamiltonian apply and the full Chebyshev filter), FP32-wire tolerance,
// bare-stiffness (Poisson) mode, the simulator-vs-measured overlap sanity
// bounds, failure propagation, the zero-allocation steady state, and the
// lane-resident PCG job against the serial Jacobi-PCG.

#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/timer.hpp"
#include "dd/engine.hpp"
#include "dd/pipeline.hpp"
#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "fe/mesh.hpp"
#include "fe/poisson.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"
#include "la/iterative.hpp"
#include "la/workspace.hpp"

namespace dftfe::dd {
namespace {

// A small Mg-like cell: a few Gaussian wells standing in for the local part
// of the Mg pseudopotential, deep enough to bind states well below the
// spectrum edge.
std::vector<double> mg_like_potential(const fe::DofHandler& dofh, double L) {
  const std::array<std::array<double, 3>, 2> sites{{{0.35 * L, 0.45 * L, 0.55 * L},
                                                    {0.65 * L, 0.55 * L, 0.40 * L}}};
  std::vector<double> v(dofh.ndofs(), 0.0);
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    double val = 0.0;
    for (const auto& s : sites) {
      const double r2 = (p[0] - s[0]) * (p[0] - s[0]) + (p[1] - s[1]) * (p[1] - s[1]) +
                        (p[2] - s[2]) * (p[2] - s[2]);
      val += -2.5 * std::exp(-r2 / (0.8 * 0.8));
    }
    v[g] = val;
  }
  return v;
}

template <class T>
double filter_bounds(const ks::Hamiltonian<T>& H, double* a, double* a0) {
  // Same recipe as the solver's first-cycle bound update, pinned explicitly
  // so reference and engine runs share the exact interval.
  la::Matrix<T> v(H.n(), 1), vprev(H.n(), 1), w(H.n(), 1);
  const double b = la::lanczos_upper_bound<T>(
      [&H](const la::Matrix<T>& X, la::Matrix<T>& Y) { H.apply(X, Y); }, v, vprev, w, 14);
  double vmin = 0.0;
  for (index_t i = 0; i < H.n(); ++i) vmin = std::min(vmin, H.potential()[i]);
  *a0 = vmin - 1.0;
  *a = *a0 + 0.15 * (b - *a0);
  return b;
}

template <class T>
double max_diff(const la::Matrix<T>& A, const la::Matrix<T>& B) {
  double m = 0.0;
  for (index_t i = 0; i < A.size(); ++i)
    m = std::max(m, std::abs(A.data()[i] - B.data()[i]));
  return m;
}

TEST(SlabEngine, ApplyMatchesReferenceAcrossLaneCounts) {
  const double L = 8.0;
  for (const bool periodic : {false, true}) {
    const auto mesh = fe::make_uniform_mesh(L, 4, periodic);
    fe::DofHandler dofh(mesh, 3);
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(mg_like_potential(dofh, L));
    la::Matrix<double> X(dofh.ndofs(), 6);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.13 * i) + 0.2;
    la::Matrix<double> Yref;
    H.apply(X, Yref);
    for (const int lanes : {1, 2, 4}) {
      BackendOptions opt;
      opt.nlanes = lanes;
      opt.mode = EngineMode::async;
      opt.wire = Wire::fp64;
      RankEngine<double> eng(dofh, opt);
      eng.set_potential(H.potential());
      la::Matrix<double> Y;
      eng.apply(X, Y);
      const double d = max_diff(Y, Yref);
      EXPECT_LT(d, 1e-12) << "periodic=" << periodic << " lanes=" << lanes;
      if (lanes == 1) {
        // A single lane shares no dof: it runs the identical kernels over
        // the identical cells and rows, bitwise, not just to tolerance.
        EXPECT_EQ(d, 0.0) << "periodic=" << periodic;
      }
    }
  }
}

// The same on a complex Bloch operator over the default (FP32) wire: one
// lane sends nothing, so it is bitwise the serial Hamiltonian on a periodic
// mesh.
TEST(SlabEngine, OneLaneIsBitwiseTheComplexBlochHamiltonian) {
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  const std::array<double, 3> kpt{0.1, 0.0, 0.05};
  ks::Hamiltonian<complex_t> H(dofh, kpt);
  H.set_potential(mg_like_potential(dofh, L));
  la::Matrix<complex_t> X(dofh.ndofs(), 5);
  for (index_t i = 0; i < X.size(); ++i)
    X.data()[i] = complex_t(std::sin(0.31 * i), std::cos(0.17 * i));
  la::Matrix<complex_t> Yref, Y;
  H.apply(X, Yref);
  BackendOptions opt;
  opt.nlanes = 1;
  ASSERT_EQ(opt.wire, Wire::fp32);
  RankEngine<complex_t> eng(dofh, opt, Operator::hamiltonian, kpt);
  eng.set_potential(H.potential());
  eng.apply(X, Y);
  EXPECT_EQ(max_diff(Y, Yref), 0.0);
  EXPECT_EQ(eng.comm_stats().messages, 0);
}

TEST(SlabEngine, SyncAndAsyncAreBitwiseIdentical) {
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(mg_like_potential(dofh, L));
  double a = 0.0, a0 = 0.0;
  const double b = filter_bounds(H, &a, &a0);

  auto run = [&](EngineMode mode, la::Matrix<double>& X) {
    BackendOptions opt;
    opt.nlanes = 4;
    opt.mode = mode;
    opt.wire = Wire::fp64;
    RankEngine<double> eng(dofh, opt);
    eng.set_potential(H.potential());
    eng.filter_block(X, 0, X.cols(), 8, a, b, a0);
  };
  la::Matrix<double> Xs(dofh.ndofs(), 4), Xa(dofh.ndofs(), 4);
  for (index_t i = 0; i < Xs.size(); ++i)
    Xs.data()[i] = Xa.data()[i] = std::cos(0.21 * i) * 0.3;
  run(EngineMode::sync, Xs);
  run(EngineMode::async, Xa);
  // Same arithmetic in the same order in both schedules: exactly equal.
  EXPECT_EQ(max_diff(Xs, Xa), 0.0);
}

// The tentpole equivalence criterion: the threaded engine's filtered
// subspace matches the undecomposed ChFES filter to 1e-12 on a small
// Mg-like cell, for p in {3, 5}, in both execution modes.
TEST(SlabEngine, FilteredSubspaceMatchesReferenceP3P5) {
  const double L = 8.0;
  for (const int degree_fe : {3, 5}) {
    const auto mesh = fe::make_uniform_mesh(L, degree_fe == 3 ? 4 : 3, true);
    fe::DofHandler dofh(mesh, degree_fe);
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(mg_like_potential(dofh, L));
    double a = 0.0, a0 = 0.0;
    const double b = filter_bounds(H, &a, &a0);

    ks::ChfesOptions copt;
    copt.cheb_degree = 10;
    copt.block_size = 8;
    ks::ChebyshevFilteredSolver<double> ref(H, 12, copt);
    ref.initialize_random(7);
    ref.set_bounds(a, b, a0);
    ref.filter();

    for (const auto mode : {EngineMode::sync, EngineMode::async}) {
      BackendOptions opt;
      opt.nlanes = (degree_fe == 3) ? 4 : 3;
      opt.mode = mode;
      opt.wire = Wire::fp64;
      RankEngine<double> eng(dofh, opt);
      eng.set_potential(H.potential());
      ks::ChebyshevFilteredSolver<double> sol(H, 12, copt);
      sol.initialize_random(7);
      sol.set_bounds(a, b, a0);
      sol.set_backend(&eng);
      sol.filter();
      EXPECT_LT(max_diff(sol.subspace(), ref.subspace()), 1e-12)
          << "p=" << degree_fe << " mode=" << (mode == EngineMode::sync ? "sync" : "async");
    }
  }
}

TEST(SlabEngine, ComplexKpointFilterMatchesReference) {
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  const std::array<double, 3> kpt{0.1, 0.0, 0.05};
  ks::Hamiltonian<complex_t> H(dofh, kpt);
  H.set_potential(mg_like_potential(dofh, L));
  double a = 0.0, a0 = 0.0;
  const double b = filter_bounds(H, &a, &a0);

  ks::ChfesOptions copt;
  copt.cheb_degree = 8;
  copt.block_size = 6;
  ks::ChebyshevFilteredSolver<complex_t> ref(H, 6, copt);
  ref.initialize_random(11);
  ref.set_bounds(a, b, a0);
  ref.filter();

  BackendOptions opt;
  opt.nlanes = 3;
  opt.wire = Wire::fp64;
  RankEngine<complex_t> eng(dofh, opt, Operator::hamiltonian, kpt);
  eng.set_potential(H.potential());
  ks::ChebyshevFilteredSolver<complex_t> sol(H, 6, copt);
  sol.initialize_random(11);
  sol.set_bounds(a, b, a0);
  sol.set_backend(&eng);
  sol.filter();
  EXPECT_LT(max_diff(sol.subspace(), ref.subspace()), 1e-12);
}

/// One apply on 4 lanes over the FP32 wire against the undecomposed
/// reference, at Bloch vector `kpt` (complex T carries the k-point phases).
template <class T>
void expect_fp32_wire_drift(std::array<double, 3> kpt) {
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<T> H(dofh, kpt);
  H.set_potential(mg_like_potential(dofh, L));
  la::Matrix<T> X(dofh.ndofs(), 4);
  for (index_t i = 0; i < X.size(); ++i) {
    if constexpr (std::is_same_v<T, complex_t>)
      X.data()[i] = complex_t(std::sin(0.31 * i), std::cos(0.17 * i));
    else
      X.data()[i] = std::sin(0.31 * i);
  }
  la::Matrix<T> Yref;
  H.apply(X, Yref);

  BackendOptions opt;
  opt.nlanes = 4;
  opt.wire = Wire::fp32;
  RankEngine<T> eng(dofh, opt, Operator::hamiltonian, kpt);
  eng.set_potential(H.potential());
  la::Matrix<T> Y;
  eng.apply(X, Y);
  const double d = max_diff(Y, Yref);
  // Interface planes see the neighbor's partial after an FP32 round trip —
  // real drift, but at single-precision epsilon level, exactly like the
  // distributed FP32 wire of Sec. 5.4.2.
  EXPECT_GT(d, 0.0);
  double scale = 0.0;
  for (index_t i = 0; i < Yref.size(); ++i)
    scale = std::max(scale, std::abs(Yref.data()[i]));
  EXPECT_LT(d, 1e-5 * scale);
  // Wire bytes on the wire are half the FP64 payload for the same traffic.
  BackendOptions o64 = opt;
  o64.wire = Wire::fp64;
  RankEngine<T> eng64(dofh, o64, Operator::hamiltonian, kpt);
  eng64.set_potential(H.potential());
  eng64.apply(X, Y);
  EXPECT_EQ(2 * eng.comm_stats().bytes(), eng64.comm_stats().bytes());
}

TEST(SlabEngine, Fp32WireDriftsAtSinglePrecisionOnly) {
  expect_fp32_wire_drift<double>({0.0, 0.0, 0.0});
  // Complex Bloch blocks travel the same wire as two float parts per value.
  expect_fp32_wire_drift<complex_t>({0.1, 0.0, 0.05});
}

TEST(SlabEngine, BareStiffnessModeMatchesPoissonOperator) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  fe::CellStiffness<double> A(dofh, 1.0);
  la::Matrix<double> X(dofh.ndofs(), 3);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::cos(0.17 * i);
  la::Matrix<double> Yref(dofh.ndofs(), 3);
  Yref.zero();
  A.apply_add(X, Yref);

  BackendOptions opt;
  opt.nlanes = 3;
  opt.wire = Wire::fp64;
  RankEngine<double> eng(dofh, opt, Operator::stiffness);
  la::Matrix<double> Y;
  eng.apply(X, Y);
  EXPECT_LT(max_diff(Y, Yref), 1e-12);
}

TEST(SlabEngine, MeasuredWallRespectsSimulatorBounds) {
  // With an injected wire delay the measured filter wall must land between
  // the pipeline simulator's perfect-overlap and fully-synchronous
  // schedules (generous slack: the engine posts halos earlier in a step
  // than the simulator's block-granular model assumes, and CI machines are
  // noisy).
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(mg_like_potential(dofh, L));
  double a = 0.0, a0 = 0.0;
  const double b = filter_bounds(H, &a, &a0);

  BackendOptions opt;
  opt.nlanes = 2;
  opt.mode = EngineMode::sync;
  opt.wire = Wire::fp64;
  opt.inject_wire_delay = true;
  opt.model.bandwidth_bytes_per_s = 5e6;  // ~2 ms per 8-column halo packet
  opt.model.latency_s = 1e-4;
  RankEngine<double> eng(dofh, opt);
  eng.set_potential(H.potential());

  la::Matrix<double> X(dofh.ndofs(), 8);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.19 * i);
  const int degree = 8;
  Timer wall;
  eng.filter_block(X, 0, 8, degree, a, b, a0);
  const double measured = wall.seconds();

  std::vector<BlockTiming> blocks;
  double modeled_total = 0.0;
  for (const auto& st : eng.last_step_stats()) {
    blocks.push_back({st.compute, st.modeled});
    modeled_total += st.modeled;
  }
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(degree));
  EXPECT_GT(modeled_total, 5e-3);  // the injected delay is non-trivial
  // Sync mode really pays the wire: the slept delays are in the wall.
  EXPECT_GT(measured, 0.8 * modeled_total);
  EXPECT_GE(measured, 0.5 * simulate_overlap(blocks));
  EXPECT_LE(measured, 2.0 * simulate_sync(blocks) + 0.05);

  // Async on the same problem overlaps at least part of the wire time and
  // still respects the simulator's lower bound.
  eng.set_mode(EngineMode::async);
  Timer wall2;
  eng.filter_block(X, 0, 8, degree, a, b, a0);
  const double measured_async = wall2.seconds();
  blocks.clear();
  for (const auto& st : eng.last_step_stats()) blocks.push_back({st.compute, st.modeled});
  EXPECT_GE(measured_async, 0.5 * simulate_overlap(blocks));
  EXPECT_LE(measured_async, 2.0 * simulate_sync(blocks) + 0.05);
}

TEST(SlabEngine, LaneFaultPropagatesAndEngineRecovers) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, true);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), -0.5));
  BackendOptions opt;
  opt.nlanes = 4;
  opt.wire = Wire::fp64;
  RankEngine<double> eng(dofh, opt);
  eng.set_potential(H.potential());

  la::Matrix<double> X(dofh.ndofs(), 3), Y, Yref;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.41 * i);
  H.apply(X, Yref);

  for (const int lane : {0, 2}) {
    EXPECT_THROW(eng.debug_fault(lane), std::runtime_error);
    // The poisoned mailboxes were reset: the next job runs and is correct.
    eng.apply(X, Y);
    EXPECT_LT(max_diff(Y, Yref), 1e-12);
  }
}

TEST(SlabEngine, SteadyStateAllocatesNothing) {
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(mg_like_potential(dofh, L));
  double a = 0.0, a0 = 0.0;
  const double b = filter_bounds(H, &a, &a0);

  BackendOptions opt;
  opt.nlanes = 4;
  opt.wire = Wire::fp64;
  RankEngine<double> eng(dofh, opt);
  eng.set_potential(H.potential());
  la::Matrix<double> X(dofh.ndofs(), 6);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::cos(0.23 * i);

  // Warm-up sizes every lane buffer, mailbox slot, and GEMM panel...
  eng.filter_block(X, 0, 6, 6, a, b, a0);
  la::Matrix<double> Y;
  eng.apply(X, Y);
  la::WorkspaceCounters::reset();
  // ...after which the engine's hot loop never touches the heap.
  for (int rep = 0; rep < 3; ++rep) {
    eng.filter_block(X, 0, 6, 6, a, b, a0);
    eng.apply(X, Y);
  }
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 0);
  EXPECT_GT(la::WorkspaceCounters::checkouts(), 0);
}

TEST(SlabEngine, CommStatsCountBothDirectionsPerInterface) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  BackendOptions opt;
  opt.nlanes = 4;
  opt.grid = {1, 1, 4};  // pin the z-slab layout: the counts below are slab-exact
  opt.wire = Wire::fp64;
  opt.model.bandwidth_bytes_per_s = 1e8;
  opt.model.latency_s = 1e-5;
  RankEngine<double> eng(dofh, opt, Operator::stiffness);
  la::Matrix<double> X(dofh.ndofs(), 5), Y;
  eng.apply(X, Y);
  const auto st = eng.comm_stats();
  // 3 interfaces, each: 2 sends + 2 receives of one 5-column plane packet.
  const index_t plane = dofh.naxis(0) * dofh.naxis(1);
  EXPECT_EQ(st.messages, 3 * 4);
  EXPECT_EQ(st.bytes(), 3 * 4 * static_cast<std::int64_t>(plane) * 5 * 8);
  // The modeled wire time is CommModel's per-packet charge, paid once per
  // received packet (3 interfaces x 2 directions).
  const std::int64_t packet = halo_packet_bytes<double>(plane * 5, Wire::fp64);
  EXPECT_NEAR(st.modeled_seconds, 3 * 2 * opt.model.time(packet, 1), 1e-12);
  eng.clear_comm_stats();
  EXPECT_EQ(eng.comm_stats().messages, 0);
}

// --- 3D brick decomposition -------------------------------------------------

// The brick tentpole equivalence criterion: a true 3D brick grid (x/y/z all
// split, faces + edges + corners exchanging) matches the undecomposed
// reference apply and ChFES filter to 1e-12, for p in {3, 5}, periodic and
// non-periodic, in both execution modes.
TEST(BrickEngine, ApplyMatchesReferenceOn3DGrids) {
  const double L = 8.0;
  for (const bool periodic : {false, true}) {
    const auto mesh = fe::make_uniform_mesh(L, 4, periodic);
    fe::DofHandler dofh(mesh, 3);
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(mg_like_potential(dofh, L));
    la::Matrix<double> X(dofh.ndofs(), 6);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.13 * i) + 0.2;
    la::Matrix<double> Yref;
    H.apply(X, Yref);
    for (const std::array<int, 3> grid : {std::array<int, 3>{2, 2, 1},
                                          std::array<int, 3>{2, 1, 2},
                                          std::array<int, 3>{2, 2, 2}}) {
      for (const auto mode : {EngineMode::sync, EngineMode::async}) {
        BackendOptions opt;
        opt.grid = grid;
        opt.nlanes = grid[0] * grid[1] * grid[2];
        opt.mode = mode;
        opt.wire = Wire::fp64;
        RankEngine<double> eng(dofh, opt);
        EXPECT_EQ(eng.nlanes(), opt.nlanes);
        eng.set_potential(H.potential());
        la::Matrix<double> Y;
        eng.apply(X, Y);
        EXPECT_LT(max_diff(Y, Yref), 1e-12)
            << "periodic=" << periodic << " grid=" << grid[0] << "x" << grid[1] << "x"
            << grid[2] << " mode=" << (mode == EngineMode::sync ? "sync" : "async");
      }
    }
  }
}

// Every other engine test runs on a uniform mesh, where each lane operator
// holds a single geometry group. Graded on every axis, the mesh gives the
// lanes' interface and interior cell lists up to 8 groups each, gathered in
// another order than the serial operator's; engine apply and filter_block
// must still match the serial Hamiltonian. On {1,1,4} the 6 z-cells split
// into bricks of 2, 2, 1 and 1 cells: the 1-cell lanes have no interior
// cells at all.
TEST(BrickEngine, ApplyMatchesReferenceOnGradedMesh) {
  const double L = 8.0;
  auto max_abs = [](const la::Matrix<double>& A) {
    double m = 0.0;
    for (index_t i = 0; i < A.size(); ++i) m = std::max(m, std::abs(A.data()[i]));
    return m;
  };
  for (const bool periodic : {false, true}) {
    // Three 1-bohr cells, then three of 5/3 bohr, on each axis.
    const fe::Axis ax = fe::make_graded_axis(L, 1.5, 1.5, 1.0, 1.7, periodic);
    const fe::Mesh mesh(ax, ax, ax);
    fe::DofHandler dofh(mesh, 3);
    ASSERT_EQ(mesh.ncells_total(), 216);
    ASSERT_EQ(fe::CellStiffness<double>(dofh, 0.5).ngroups(), 8);
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(mg_like_potential(dofh, L));
    la::Matrix<double> X(dofh.ndofs(), 5);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.13 * i) + 0.2;
    la::Matrix<double> Yref;
    H.apply(X, Yref);
    double a = 0.0, a0 = 0.0;
    const double b = filter_bounds(H, &a, &a0);
    SerialBackend<double> serial(
        dofh, [&H](const la::Matrix<double>& A, la::Matrix<double>& B, double c, double sc,
                   const la::Matrix<double>* Z, double zc) { H.apply_fused(A, B, c, sc, Z, zc); });
    la::Matrix<double> Fref = X;
    serial.filter_block(Fref, 0, Fref.cols(), 6, a, b, a0);
    for (const std::array<int, 3> grid : {std::array<int, 3>{2, 1, 2},
                                          std::array<int, 3>{1, 1, 4},
                                          std::array<int, 3>{2, 2, 2}}) {
      for (const auto mode : {EngineMode::sync, EngineMode::async}) {
        BackendOptions opt;
        opt.grid = grid;
        opt.nlanes = grid[0] * grid[1] * grid[2];
        opt.mode = mode;
        opt.wire = Wire::fp64;
        RankEngine<double> eng(dofh, opt);
        eng.set_potential(H.potential());
        la::Matrix<double> Y;
        eng.apply(X, Y);
        la::Matrix<double> F = X;
        eng.filter_block(F, 0, F.cols(), 6, a, b, a0);
        const std::string where = "periodic=" + std::to_string(periodic) + " grid=" +
                                  std::to_string(grid[0]) + "x" + std::to_string(grid[1]) +
                                  "x" + std::to_string(grid[2]) +
                                  (mode == EngineMode::sync ? " sync" : " async");
        EXPECT_LT(max_diff(Y, Yref), 1e-12 * max_abs(Yref)) << where;
        EXPECT_LT(max_diff(F, Fref), 1e-12 * max_abs(Fref)) << where;
      }
    }
  }
}

TEST(BrickEngine, FilteredSubspaceMatchesReferenceP3P5) {
  const double L = 8.0;
  for (const int degree_fe : {3, 5}) {
    const auto mesh = fe::make_uniform_mesh(L, degree_fe == 3 ? 4 : 3, true);
    fe::DofHandler dofh(mesh, degree_fe);
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(mg_like_potential(dofh, L));
    double a = 0.0, a0 = 0.0;
    const double b = filter_bounds(H, &a, &a0);

    ks::ChfesOptions copt;
    copt.cheb_degree = 10;
    copt.block_size = 8;
    ks::ChebyshevFilteredSolver<double> ref(H, 12, copt);
    ref.initialize_random(7);
    ref.set_bounds(a, b, a0);
    ref.filter();

    BackendOptions opt;
    opt.grid = (degree_fe == 3) ? std::array<int, 3>{2, 2, 2} : std::array<int, 3>{3, 1, 1};
    opt.nlanes = opt.grid[0] * opt.grid[1] * opt.grid[2];
    opt.wire = Wire::fp64;
    RankEngine<double> eng(dofh, opt);
    eng.set_potential(H.potential());
    ks::ChebyshevFilteredSolver<double> sol(H, 12, copt);
    sol.initialize_random(7);
    sol.set_bounds(a, b, a0);
    sol.set_backend(&eng);
    sol.filter();
    EXPECT_LT(max_diff(sol.subspace(), ref.subspace()), 1e-12) << "p=" << degree_fe;
  }
}

TEST(BrickEngine, SyncAndAsyncAreBitwiseIdenticalOn2x2x1) {
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(mg_like_potential(dofh, L));
  double a = 0.0, a0 = 0.0;
  const double b = filter_bounds(H, &a, &a0);

  auto run = [&](EngineMode mode, la::Matrix<double>& X) {
    BackendOptions opt;
    opt.grid = {2, 2, 1};
    opt.nlanes = 4;
    opt.mode = mode;
    opt.wire = Wire::fp64;
    RankEngine<double> eng(dofh, opt);
    eng.set_potential(H.potential());
    eng.filter_block(X, 0, X.cols(), 8, a, b, a0);
  };
  la::Matrix<double> Xs(dofh.ndofs(), 4), Xa(dofh.ndofs(), 4);
  for (index_t i = 0; i < Xs.size(); ++i)
    Xs.data()[i] = Xa.data()[i] = std::cos(0.21 * i) * 0.3;
  run(EngineMode::sync, Xs);
  run(EngineMode::async, Xa);
  // Same arithmetic, same rank-ordered post/receive order in both
  // schedules: exactly equal, even with edge/corner dofs in flight.
  EXPECT_EQ(max_diff(Xs, Xa), 0.0);
}

TEST(BrickEngine, DegenerateGridMatchesSlabEngineBitwise) {
  // A {1, 1, N} brick grid must be byte-for-byte the historical slab engine:
  // same cell splits, same packets, same arithmetic order.
  const double L = 8.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(mg_like_potential(dofh, L));
  la::Matrix<double> X(dofh.ndofs(), 5);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.29 * i);

  BackendOptions oa;
  oa.nlanes = 4;  // factorize(4) on an elongated-free cube keeps all 4 lanes
  oa.grid = {1, 1, 4};
  oa.wire = Wire::fp64;
  RankEngine<double> slab(dofh, oa);
  slab.set_potential(H.potential());
  la::Matrix<double> Ys;
  slab.apply(X, Ys);

  BackendOptions ob;
  ob.grid = {2, 2, 1};
  ob.nlanes = 4;
  ob.wire = Wire::fp64;
  RankEngine<double> brick(dofh, ob);
  brick.set_potential(H.potential());
  la::Matrix<double> Yb;
  brick.apply(X, Yb);

  // Both decompositions agree with each other to association order...
  EXPECT_LT(max_diff(Ys, Yb), 1e-12);
  // ...and the brick moves strictly fewer halo bytes than the slab at the
  // same lane count on this cube (the surface-minimization payoff).
  EXPECT_LT(brick.comm_stats().bytes(), slab.comm_stats().bytes());
}

TEST(BrickEngine, GramTreeReductionMatchesSerialOverlap) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  const index_t n = dofh.ndofs(), nst = 7;
  la::Matrix<double> A(n, nst), B(n, nst);
  for (index_t i = 0; i < A.size(); ++i) {
    A.data()[i] = std::sin(0.17 * i) + 0.1;
    B.data()[i] = std::cos(0.11 * i) - 0.2;
  }
  la::Matrix<double> Sref;
  la::overlap_hermitian_mixed(A, B, Sref, 64, false);

  BackendOptions opt;
  opt.grid = {2, 2, 2};
  opt.nlanes = 8;
  opt.wire = Wire::fp64;
  RankEngine<double> eng(dofh, opt, Operator::stiffness);
  la::Matrix<double> S;
  eng.overlap(A, B, S, 64, false);
  // Brick-local partials + log2-depth tree sum reassociate the row sums:
  // equal to the serial Gram to FP association order.
  for (index_t j = 0; j < nst; ++j)
    for (index_t i = 0; i < nst; ++i)
      EXPECT_NEAR(S(i, j), Sref(i, j), 1e-11 * n) << i << "," << j;
}

// Lanes exchange exactly the dofs they share: one packet per (sender,
// receiver) pair of distinct lanes per step, carrying every dof the two hold
// in common. A periodic axis wraps the shared faces, but a lane holds each
// dof once, so with a single brick on an axis it shares nothing across the
// wrap and the message counts are the isolated ones. A dof held by L_g lanes
// receives the other L_g - 1 partials on each of them, so the ledger (each
// value counted when posted and when received) holds
// 2 * 8 * ncols * sum_g L_g (L_g - 1) FP64 bytes. The density check shows
// each row is owned exactly once.
TEST(BrickEngine, OnePacketPerSharingLane) {
  const double L = 8.0;
  const int p = 3;
  const index_t ncols = 3;
  struct Case {
    std::array<int, 3> grid;
    std::int64_t messages;
  };
  const Case cases[] = {{{2, 2, 2}, 112}, {{2, 1, 2}, 24}, {{1, 1, 2}, 4}, {{1, 1, 1}, 0}};
  for (const bool periodic : {false, true}) {
    const auto mesh = fe::make_uniform_mesh(L, 4, periodic);
    fe::DofHandler dofh(mesh, p);
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(mg_like_potential(dofh, L));
    la::Matrix<double> X(dofh.ndofs(), ncols);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.13 * i) + 0.2;
    la::Matrix<double> Yref;
    H.apply(X, Yref);
    double scale = 0.0;
    for (index_t i = 0; i < Yref.size(); ++i) scale = std::max(scale, std::abs(Yref.data()[i]));
    const std::vector<double> occ{2.0, 1.5, 0.5};
    SerialBackend<double> serial(
        dofh, [&H](const la::Matrix<double>& A, la::Matrix<double>& B, double c, double sc,
                   const la::Matrix<double>* Z, double zc) { H.apply_fused(A, B, c, sc, Z, zc); });
    std::vector<double> rho_ref(static_cast<std::size_t>(dofh.ndofs()), 0.25);
    serial.accumulate_density(X, occ, 0.5, rho_ref);
    const index_t nx = dofh.naxis(0), ny = dofh.naxis(1), nz = dofh.naxis(2);
    for (const Case& c : cases) {
      const std::string where = "periodic=" + std::to_string(periodic) + " grid=" +
                                std::to_string(c.grid[0]) + "x" + std::to_string(c.grid[1]) +
                                "x" + std::to_string(c.grid[2]);
      // L_g: the bricks whose closed dof box, wrapped on a periodic axis,
      // holds g, each counted once.
      const auto part = BrickPartition::cell_aligned(dofh, c.grid);
      std::vector<std::int64_t> lanes(static_cast<std::size_t>(dofh.ndofs()), 0);
      std::vector<int> last(static_cast<std::size_t>(dofh.ndofs()), -1);
      for (int r = 0; r < part.nranks(); ++r) {
        const Brick& bk = part.brick(r);
        for (index_t k = bk.c_begin[2] * p; k <= bk.c_end[2] * p; ++k)
          for (index_t j = bk.c_begin[1] * p; j <= bk.c_end[1] * p; ++j)
            for (index_t i = bk.c_begin[0] * p; i <= bk.c_end[0] * p; ++i) {
              const auto g = static_cast<std::size_t>(i % nx + nx * (j % ny + ny * (k % nz)));
              if (last[g] != r) ++lanes[g];
              last[g] = r;
            }
      }
      std::int64_t pairs = 0;
      for (const std::int64_t lg : lanes) pairs += lg * (lg - 1);

      BackendOptions opt;
      opt.grid = c.grid;
      opt.nlanes = c.grid[0] * c.grid[1] * c.grid[2];
      opt.wire = Wire::fp64;
      RankEngine<double> eng(dofh, opt);
      eng.set_potential(H.potential());
      la::Matrix<double> Y;
      eng.apply(X, Y);
      const CommStats st = eng.comm_stats();
      EXPECT_EQ(st.messages, c.messages) << where;
      EXPECT_EQ(st.bytes(), 2 * 8 * ncols * pairs) << where;
      EXPECT_LT(max_diff(Y, Yref), 1e-12 * scale) << where;
      std::vector<double> rho(static_cast<std::size_t>(dofh.ndofs()), 0.25);
      eng.accumulate_density(X, occ, 0.5, rho);
      EXPECT_EQ(rho, rho_ref) << where;
    }
  }
}

TEST(BrickEngine, RejectsNonPositiveLaneCountsAndPartialGrids) {
  // The engine hands its options to the partition unchanged: a lane count
  // below one and a grid with an unset or negative axis are invalid input,
  // never silently replaced by one lane or by factorize(nlanes).
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 2);
  for (const int nlanes : {0, -3}) {
    BackendOptions opt;
    opt.nlanes = nlanes;
    EXPECT_THROW(RankEngine<double>(dofh, opt), std::invalid_argument) << nlanes;
  }
  for (const std::array<int, 3> grid : {std::array<int, 3>{2, 0, 2},
                                        std::array<int, 3>{0, 0, 4},
                                        std::array<int, 3>{2, -1, 2}}) {
    BackendOptions opt;
    opt.nlanes = 4;
    opt.grid = grid;
    EXPECT_THROW(RankEngine<double>(dofh, opt), std::invalid_argument)
        << grid[0] << "x" << grid[1] << "x" << grid[2];
  }
}

// --- lane-resident PCG -----------------------------------------------------

/// A smooth charge-like right-hand side for the stiffness solve: zero on the
/// Dirichlet rows, zero-sum on a periodic mesh (K's nullspace is the
/// constants), so K x = b is consistent in both cases.
std::vector<double> poisson_rhs(const fe::DofHandler& dofh, double L) {
  const index_t n = dofh.ndofs();
  const auto& mass = dofh.mass();
  const auto& bmask = dofh.boundary_mask();
  std::vector<double> b(n);
  double q = 0.0, m = 0.0;
  for (index_t g = 0; g < n; ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - 0.4 * L) * (p[0] - 0.4 * L) + (p[1] - 0.5 * L) * (p[1] - 0.5 * L) +
                      (p[2] - 0.55 * L) * (p[2] - 0.55 * L);
    b[g] = mass[g] * std::exp(-r2 / 2.0);
    q += b[g];
    m += mass[g];
  }
  const bool periodic = dofh.boundary_dofs().empty();
  for (index_t g = 0; g < n; ++g) {
    if (periodic) b[g] -= mass[g] * q / m;
    if (bmask[g] != 0.0) b[g] = 0.0;
  }
  return b;
}

/// The serial reference: fe::PoissonSolver's built-in CG itself.
la::SolveReport serial_pcg(const fe::DofHandler& dofh, const std::vector<double>& b,
                           std::vector<double>& x, double tol, int maxit) {
  const fe::PoissonSolver poisson(dofh);
  return poisson.serial_cg(b, x, tol, maxit);
}

BackendOptions stiffness_options(std::array<int, 3> grid, EngineMode mode) {
  BackendOptions opt;
  opt.grid = grid;
  opt.nlanes = grid[0] * grid[1] * grid[2];
  opt.mode = mode;
  opt.wire = Wire::fp64;
  return opt;
}

double rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

// The tentpole equivalence criterion: one lane-resident pcg job per solve
// agrees with the serial CG (solution to 1e-10 relative, iteration
// count within +-1) on isolated and periodic meshes above the OpenMP
// parallel thresholds, on slab and brick grids; sync and async are bitwise
// identical; and every lane leaves the loop at the same iteration (pcg()
// throws std::logic_error otherwise).
TEST(LanePcg, MatchesSerialPcgOnBrickGridsInBothModes) {
  const double L = 8.0, tol = 1e-12;
  for (const bool periodic : {false, true}) {
    const auto mesh = fe::make_uniform_mesh(L, periodic ? 6 : 5, periodic);
    fe::DofHandler dofh(mesh, 4);
    ASSERT_GT(dofh.ndofs(), 8192);
    const std::vector<double> b = poisson_rhs(dofh, L);
    std::vector<double> xref(dofh.ndofs(), 0.0);
    const la::SolveReport ref = serial_pcg(dofh, b, xref, tol, 4000);
    ASSERT_TRUE(ref.converged);
    for (const std::array<int, 3> grid : {std::array<int, 3>{1, 1, 4},
                                          std::array<int, 3>{2, 1, 2},
                                          std::array<int, 3>{2, 2, 2}}) {
      std::vector<double> xs, xa;
      la::SolveReport rs, ra;
      for (const auto mode : {EngineMode::sync, EngineMode::async}) {
        SCOPED_TRACE(testing::Message() << "periodic=" << periodic << " grid=" << grid[0] << "x"
                                        << grid[1] << "x" << grid[2] << " mode="
                                        << (mode == EngineMode::sync ? "sync" : "async"));
        RankEngine<double> eng(dofh, stiffness_options(grid, mode), Operator::stiffness);
        std::vector<double> x(dofh.ndofs(), 0.0);
        la::SolveReport rep;
        ASSERT_NO_THROW(rep = eng.pcg(b, x, tol, 4000));
        EXPECT_TRUE(rep.converged);
        EXPECT_LE(std::abs(rep.iterations - ref.iterations), 1);
        EXPECT_LT(rel_diff(x, xref), 1e-10);
        (mode == EngineMode::sync ? xs : xa) = x;
        (mode == EngineMode::sync ? rs : ra) = rep;
      }
      EXPECT_EQ(rs.iterations, ra.iterations);
      EXPECT_EQ(rs.residual, ra.residual);
      for (index_t i = 0; i < dofh.ndofs(); ++i) ASSERT_EQ(xs[i], xa[i]) << i;
    }
  }
}

// The CG is written once: a one-lane engine's pcg job and the serial solve
// run the same la::pcg statements over the same rows in the same order, so
// at one OpenMP thread (the serial dot products then add in row order, as a
// lane's do) iterations, residual and every entry of x are bitwise equal,
// on isolated and periodic meshes alike.
TEST(LanePcg, OneLaneIsBitwiseTheSerialCg) {
  const double L = 8.0, tol = 1e-12;
  for (const bool periodic : {false, true}) {
    SCOPED_TRACE(testing::Message() << "periodic=" << periodic);
    const auto mesh = fe::make_uniform_mesh(L, periodic ? 6 : 5, periodic);
    fe::DofHandler dofh(mesh, 4);
    ASSERT_GT(dofh.ndofs(), 8192);
    const std::vector<double> b = poisson_rhs(dofh, L);
    std::vector<double> xref(dofh.ndofs(), 0.0), x(dofh.ndofs(), 0.0);
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    const la::SolveReport ref = serial_pcg(dofh, b, xref, tol, 4000);
    RankEngine<double> eng(dofh, stiffness_options({1, 1, 1}, EngineMode::async),
                           Operator::stiffness);
    const la::SolveReport rep = eng.pcg(b, x, tol, 4000);
    omp_set_num_threads(saved);
    ASSERT_TRUE(ref.converged);
    EXPECT_TRUE(rep.converged);
    EXPECT_EQ(rep.iterations, ref.iterations);
    EXPECT_EQ(rep.residual, ref.residual);
    for (index_t i = 0; i < dofh.ndofs(); ++i) ASSERT_EQ(x[i], xref[i]) << i;
  }
}

TEST(LanePcg, MaxitReturnsUnconvergedWithoutDeadlock) {
  const double L = 6.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(mesh, 3);
  const std::vector<double> b = poisson_rhs(dofh, L);
  for (const int maxit : {0, 1, 5}) {
    std::vector<double> xref(dofh.ndofs(), 0.0), x(dofh.ndofs(), 0.0);
    const la::SolveReport ref = serial_pcg(dofh, b, xref, 1e-14, maxit);
    RankEngine<double> eng(dofh, stiffness_options({2, 2, 1}, EngineMode::async),
                           Operator::stiffness);
    const la::SolveReport rep = eng.pcg(b, x, 1e-14, maxit);
    EXPECT_FALSE(rep.converged) << "maxit=" << maxit;
    EXPECT_EQ(rep.iterations, ref.iterations) << "maxit=" << maxit;
    EXPECT_NEAR(rep.residual, ref.residual, 1e-10 * ref.residual) << "maxit=" << maxit;
  }
}

TEST(LanePcg, MidSolveLaneFaultIsRethrownAndEngineSolvesAgain) {
  const double L = 6.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(mesh, 3);
  const std::vector<double> b = poisson_rhs(dofh, L);
  std::vector<double> xref(dofh.ndofs(), 0.0);
  const la::SolveReport ref = serial_pcg(dofh, b, xref, 1e-10, 2000);
  for (const auto mode : {EngineMode::sync, EngineMode::async}) {
    RankEngine<double> eng(dofh, stiffness_options({2, 1, 2}, mode), Operator::stiffness);
    for (const auto& [lane, iter] : {std::pair<int, int>{0, 0}, {3, 7}, {1, 20}}) {
      eng.debug_fault_pcg(lane, iter);
      std::vector<double> x(dofh.ndofs(), 0.0);
      try {
        eng.pcg(b, x, 1e-10, 2000);
        ADD_FAILURE() << "injected fault on lane " << lane << " was not rethrown";
      } catch (const std::runtime_error& err) {
        EXPECT_NE(std::string(err.what()).find("injected lane fault"), std::string::npos)
            << err.what();
      }
      // Poisoned mailboxes and barrier were reset: the next solve is clean.
      const la::SolveReport rep = eng.pcg(b, x, 1e-10, 2000);
      EXPECT_TRUE(rep.converged);
      EXPECT_LE(std::abs(rep.iterations - ref.iterations), 1);
      EXPECT_LT(rel_diff(x, xref), 1e-8);
    }
  }
}

TEST(LanePcg, WarmSolveAllocatesNothing) {
  const double L = 6.0;
  const auto mesh = fe::make_uniform_mesh(L, 4, true);
  fe::DofHandler dofh(mesh, 3);
  const std::vector<double> b = poisson_rhs(dofh, L);
  RankEngine<double> eng(dofh, stiffness_options({2, 2, 1}, EngineMode::async),
                         Operator::stiffness);
  std::vector<double> x(dofh.ndofs(), 0.0);
  ASSERT_TRUE(eng.pcg(b, x, 1e-10, 2000).converged);  // warm: sizes every lane buffer
  la::WorkspaceCounters::reset();
  std::fill(x.begin(), x.end(), 0.0);
  ASSERT_TRUE(eng.pcg(b, x, 1e-10, 2000).converged);
  EXPECT_EQ(la::WorkspaceCounters::allocations(), 0);
  EXPECT_GT(la::WorkspaceCounters::checkouts(), 0);
}

TEST(LanePcg, RejectsHamiltonianEnginesAndDirichletLoads) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  std::vector<double> b(dofh.ndofs(), 0.0), x(dofh.ndofs(), 0.0);
  BackendOptions hopt;
  hopt.wire = Wire::fp64;
  RankEngine<double> ham(dofh, hopt);
  EXPECT_THROW(ham.pcg(b, x, 1e-10, 10), std::logic_error);
  RankEngine<double> eng(dofh, stiffness_options({2, 1, 1}, EngineMode::sync),
                         Operator::stiffness);
  b[static_cast<std::size_t>(dofh.boundary_dofs().front())] = 1.0;
  EXPECT_THROW(eng.pcg(b, x, 1e-10, 10), std::invalid_argument);
}

TEST(LanePcg, BareStiffnessEnginesRejectFilterBlock) {
  // The Chebyshev filter is the Hamiltonian's recurrence: a bare-stiffness
  // engine only applies its operator (apply, overlap, pcg), so filter_block
  // refuses it rather than run a recurrence on the Poisson operator.
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  RankEngine<double> eng(dofh, stiffness_options({2, 1, 1}, EngineMode::sync),
                         Operator::stiffness);
  la::Matrix<double> X(dofh.ndofs(), 2);
  X.fill(1.0);
  EXPECT_THROW(eng.filter_block(X, 0, 2, 4, 0.5, 2.0, -1.0), std::logic_error);
}

}  // namespace
}  // namespace dftfe::dd
