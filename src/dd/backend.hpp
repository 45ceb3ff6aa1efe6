#pragma once

// ExecBackend — the single execution abstraction every eigensolver stage
// routes through. The paper's strong scaling (Fig. 5, Table 3) comes from
// running the *entire* SCF — Hamiltonian applies, the Chebyshev filter, the
// CholGS/RR reductions, the density build, and the Hartree Poisson solve —
// under one distributed execution model; per-kernel opt-ins leave Amdahl's
// law in charge. One implementation per execution model:
//
//   * SerialBackend (below) — single image: the operator is borrowed through
//     a FusedApplyFn hook (bound to ks::Hamiltonian::apply_fused by ks/), so
//     a serial SCF runs exactly the statements of the ks layer.
//   * dd::RankEngine (dd/engine.hpp) implements ExecBackend itself: every
//     stage executes brick-decomposed across the engine's lanes with real
//     halo exchange (filter/apply), brick-local partial Gram reductions
//     (overlap), and disjoint owned-row density accumulation.
//
// Each kernel the two run is written once: the Chebyshev recurrence is
// la::chebyshev_filter over each model's fused operator step, and the nodal
// epilogue of that step is fe::ks_nodal_rows. ExecBackend is a pure
// interface: the Lanczos bounds run la::lanczos_upper_bound over the block
// apply on n x 1 blocks their caller owns.
//
// Layering: dd sits below ks, so the backend cannot name ks::Hamiltonian;
// the serial backend borrows it through the hook, and the engine rebuilds
// the operator brick-locally from the DofHandler. The EP-step Poisson CG is
// not a backend stage: both runs execute la::pcg, a serial solve through
// fe::PoissonSolver's built-in policy, and a threaded one as a
// bare-stiffness RankEngine's lane-resident pcg job, installed by
// ks::KohnShamDFT through PoissonSolver::set_cg. Hot entry points are inline
// in this header so the invariant linter's no-allocation rule covers the
// per-iteration code.

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "base/defs.hpp"
#include "dd/exchange.hpp"
#include "fe/dofs.hpp"
#include "la/iterative.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"

namespace dftfe::dd {

enum class BackendKind { serial, threaded };

/// The threaded backend's halo protocol (see dd/engine.hpp): sync waits for
/// every halo before the interior compute, async overlaps them.
enum class EngineMode { sync, async };

/// Options describing how a solver stack should execute — the one options
/// struct of the threaded path. Owned by core::SimulationOptions /
/// ks::ScfOptions; the ks layer builds one backend per k-point Hamiltonian
/// from these (plus, when threaded, one stiffness engine for the Poisson
/// CG), and a dd::RankEngine takes them directly.
struct BackendOptions {
  BackendKind kind = BackendKind::serial;
  int nlanes = 2;                  // threaded: total rank lanes (factorized into a grid)
  // Explicit brick lane grid {nx, ny, nz} for the threaded backend. All-zero
  // (the default) derives the grid from `nlanes` via
  // BrickPartition::factorize; any other value is the grid, checked by
  // BrickPartition::cell_aligned. {1, 1, N} pins the historical z-slab
  // layout. DFTFE_NLANES accepts either form: a total ("8") or a grid
  // ("2,2,2").
  std::array<int, 3> grid{0, 0, 0};
  EngineMode mode = EngineMode::async;
  // The halo wire defaults to FP32 under the threaded backend (Sec. 5.4.2:
  // reduced-precision partition-boundary communication is the default at
  // scale, monitored by the drift budget below). Serial execution has no
  // wire; callers needing bitwise lane arithmetic (equivalence tests, the
  // Poisson stiffness engine) pin Wire::fp64 explicitly.
  Wire wire = Wire::fp32;
  CommModel model{};               // interconnect model for stats / injection
  bool inject_wire_delay = false;  // sleep out the modeled wire time on receive
  // Per-job demotion error budget: a job hard-fails when the relative L2
  // drift of the values it packed through a reduced-precision wire exceeds
  // this bound (<= 0 disables the check). The default admits FP32 halo drift
  // (~1e-8) and BF16 drift (~1e-3) with a wide margin while still catching a
  // numerically destroyed wire (NaN/Inf contamination, wrong scaling).
  double drift_budget = 1e-2;

  /// Overlay the DFTFE_* execution environment onto `base` and return it —
  /// the one parser every driver binary (quickstart, sweep service, benches)
  /// shares, so CI legs configure any of them identically:
  ///   DFTFE_BACKEND=serial|threaded     serial, or threaded brick lanes
  ///   DFTFE_NLANES=8 | 2,2,2            total lane count or explicit brick grid
  ///   DFTFE_WIRE=fp64|fp32|bf16         halo wire format
  ///   DFTFE_ENGINE_MODE=sync|async      halo protocol
  ///   DFTFE_INJECT_WIRE_DELAY=0|1       sleep out modeled wire time on receive
  ///   DFTFE_WIRE_BW=<bytes/s>           modeled interconnect bandwidth (> 0)
  /// Unset variables leave the corresponding field of `base` untouched. A set
  /// variable outside these forms throws std::invalid_argument naming the
  /// accepted forms — never a silent fallback.
  static BackendOptions from_env(BackendOptions base);
  /// Overlay the environment onto default-constructed options.
  static BackendOptions from_env();
};

/// The fused operator hook: Y = scale * (op X - c X) - zc Z, with the
/// (Z == nullptr && c == 0 && scale == 1) special case being the plain
/// operator apply. Matches ks::Hamiltonian::apply_fused.
template <class T>
using FusedApplyFn =
    std::function<void(const la::Matrix<T>&, la::Matrix<T>&, double, double,
                       const la::Matrix<T>*, double)>;

/// The DC row loop, the one both backends run: rho[i] += weight * sum_j
/// occ[j] |X(i,j)|^2 / mass[i] on rows [r0, r1) (occupations at or below
/// 1e-12 skipped).
template <class T>
inline void density_rows(const la::Matrix<T>& X, const double* occ, double weight,
                         const double* mass, double* rho, index_t r0, index_t r1) {
  for (index_t i = r0; i < r1; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < X.cols(); ++j)
      if (occ[j] > 1e-12) s += occ[j] * scalar_traits<T>::abs2(X(i, j));
    rho[i] += weight * s / mass[i];
  }
}

/// Execution backend for one k-point Hamiltonian. All methods must be called
/// from one thread at a time, mirroring the engine's threading contract.
template <class T>
class ExecBackend {
 public:
  virtual ~ExecBackend() = default;
  virtual const char* name() const = 0;
  virtual int nlanes() const = 0;

  /// Refresh the effective potential (no-op for operators without one).
  virtual void set_potential(const std::vector<double>& v_eff) = 0;
  /// Y = op X (block apply; the Lanczos bounds pass n x 1 blocks).
  virtual void apply(const la::Matrix<T>& X, la::Matrix<T>& Y) = 0;
  /// Scaled-shifted Chebyshev recurrence on columns [col0, col0+ncols) of X.
  virtual void filter_block(la::Matrix<T>& X, index_t col0, index_t ncols, int degree,
                            double a, double b, double a0) = 0;
  /// Hermitian overlap S = A^H B (CholGS-S / RR-P reductions) under the
  /// FP32-off-diagonal policy of la::overlap_hermitian_mixed.
  virtual void overlap(const la::Matrix<T>& A, const la::Matrix<T>& B, la::Matrix<T>& S,
                       index_t mp_block, bool mixed) = 0;
  /// rho[i] += weight * sum_j occ[j] |X(i,j)|^2 / mass[i] (the DC step).
  virtual void accumulate_density(const la::Matrix<T>& X, const std::vector<double>& occ,
                                  double weight, std::vector<double>& rho) = 0;
};

/// Single-image backend: executes every stage with the statements of the ks
/// layer (the Hamiltonian's own fused apply, la::overlap_hermitian_mixed, the
/// DC row loop).
template <class T>
class SerialBackend final : public ExecBackend<T> {
 public:
  /// `apply_fused` is the operator; `set_potential` is optional (potential
  /// updates reach a serial Hamiltonian through ks::Hamiltonian directly).
  SerialBackend(const fe::DofHandler& dofh, FusedApplyFn<T> apply_fused,
                std::function<void(const std::vector<double>&)> set_potential = {});

  const char* name() const override { return "serial"; }
  int nlanes() const override { return 1; }

  void set_potential(const std::vector<double>& v_eff) override {
    if (set_potential_) set_potential_(v_eff);
  }

  void apply(const la::Matrix<T>& X, la::Matrix<T>& Y) override {
    fused_(X, Y, 0.0, 1.0, nullptr, 0.0);
  }

  /// la::chebyshev_filter on a copy of the columns, each step one fused
  /// apply of the borrowed operator.
  void filter_block(la::Matrix<T>& X, index_t col0, index_t ncols, int degree, double a,
                    double b, double a0) override {
    const index_t n = X.rows();
    la::Matrix<T>& Xb = cf_x_.acquire(n, ncols);
    la::Matrix<T>& Yb = cf_y_.acquire(n, ncols);
    la::Matrix<T>& Zb = cf_z_.acquire(n, ncols);
    for (index_t j = 0; j < ncols; ++j)
      std::copy(X.col(col0 + j), X.col(col0 + j) + n, Xb.col(j));
    const la::Matrix<T>* R = la::chebyshev_filter(
        &Xb, &Yb, &Zb, degree, a, b, a0,
        [this](const la::Matrix<T>& In, la::Matrix<T>& Out, const la::Matrix<T>* Z, double c,
               double scale, double zc, int) { fused_(In, Out, c, scale, Z, zc); });
    for (index_t j = 0; j < ncols; ++j)
      std::copy(R->col(j), R->col(j) + n, X.col(col0 + j));
  }

  void overlap(const la::Matrix<T>& A, const la::Matrix<T>& B, la::Matrix<T>& S,
               index_t mp_block, bool mixed) override {
    la::overlap_hermitian_mixed(A, B, S, mp_block, mixed);
  }

  void accumulate_density(const la::Matrix<T>& X, const std::vector<double>& occ,
                          double weight, std::vector<double>& rho) override {
    const index_t n = X.rows();
    const double* mass = dofh_->mass().data();
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) density_rows(X, occ.data(), weight, mass, rho.data(), i, i + 1);
  }

 private:
  const fe::DofHandler* dofh_;
  FusedApplyFn<T> fused_;
  std::function<void(const std::vector<double>&)> set_potential_;
  la::WorkMatrix<T> cf_x_, cf_y_, cf_z_;   // Chebyshev ping-pong blocks
};

/// Backend for a k-point Hamiltonian. Serial: wraps the caller's fused-apply
/// hook (bind ks::Hamiltonian::apply_fused); potential updates stay with the
/// Hamiltonian, so `serial_set_potential` is usually empty. Threaded: a
/// RankEngine building the brick-decomposed Hamiltonian lanes from the
/// DofHandler and `kpoint`.
template <class T>
std::unique_ptr<ExecBackend<T>> make_backend(
    const fe::DofHandler& dofh, const BackendOptions& opt, FusedApplyFn<T> serial_apply,
    std::function<void(const std::vector<double>&)> serial_set_potential = {},
    std::array<double, 3> kpoint = {0.0, 0.0, 0.0});

extern template class SerialBackend<double>;
extern template class SerialBackend<complex_t>;

}  // namespace dftfe::dd
