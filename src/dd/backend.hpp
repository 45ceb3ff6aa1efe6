#pragma once

// ExecBackend — the single execution abstraction every SCF stage routes
// through (the tentpole of the multi-rank refactor). The paper's strong
// scaling (Fig. 5, Table 3) comes from running the *entire* SCF — Hamiltonian
// applies, the Chebyshev filter, the CholGS/RR reductions, the density build,
// and the Hartree Poisson solve — under one distributed execution model;
// per-kernel opt-ins (the old ChebyshevFilteredSolver::set_engine) leave
// Amdahl's law in charge. Two implementations:
//
//   * SerialBackend — reproduces today's single-image arithmetic *bitwise*:
//     the fused Chebyshev recurrence, la::overlap_hermitian_mixed, and the
//     DC row loop are the exact statements the ks/ layer ran before the
//     refactor, so a serial-backend SCF is indistinguishable from the seed.
//   * ThreadedBackend — wraps dd::RankEngine: every stage executes
//     brick-decomposed across the engine's lanes with real halo exchange
//     (filter/apply), brick-local partial Gram reductions (overlap), and
//     disjoint owned-row density accumulation.
//
// Layering: dd sits below ks, so the backend cannot name ks::Hamiltonian.
// The serial backend instead borrows the operator through a FusedApplyFn
// hook (bound to Hamiltonian::apply_fused by ks/, or to a bare
// fe::CellStiffness by the Poisson factory below); the threaded backend
// rebuilds the operator brick-locally from the DofHandler exactly like the
// engine always has. The EP-step CG enters through pcg(): the serial backend
// runs la::jacobi_pcg on its operator, the threaded one the engine's
// lane-resident pcg job (one job per Poisson solve). Hot entry points are
// inline in this header so the invariant linter's no-allocation rule covers
// the per-iteration code.

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "base/defs.hpp"
#include "dd/engine.hpp"
#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "la/iterative.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"

namespace dftfe::dd {

enum class BackendKind { serial, threaded };

/// Options describing how a solver stack should execute. Owned by
/// core::SimulationOptions / ks::ScfOptions; the ks layer builds one backend
/// per k-point Hamiltonian plus one for the Poisson stiffness from these.
struct BackendOptions {
  BackendKind kind = BackendKind::serial;
  int nlanes = 2;                  // threaded: total rank lanes (factorized into a grid)
  // Explicit brick lane grid {nx, ny, nz} for the threaded backend. All-zero
  // (the default) derives the grid from `nlanes` via
  // BrickPartition::factorize; {1, 1, N} pins the historical z-slab layout.
  // DFTFE_NLANES accepts either form: a total ("8") or a grid ("2,2,2").
  std::array<int, 3> grid{0, 0, 0};
  EngineMode mode = EngineMode::async;
  // The halo wire defaults to FP32 under the threaded backend (Sec. 5.4.2:
  // reduced-precision partition-boundary communication is the default at
  // scale, monitored by the drift budget below). Serial execution has no
  // wire; callers needing bitwise lane arithmetic (equivalence tests, the
  // Poisson stiffness backend) pin Wire::fp64 explicitly.
  Wire wire = Wire::fp32;
  CommModel model{};               // interconnect model for stats / injection
  bool inject_wire_delay = false;  // sleep out the modeled wire time on receive
  double drift_budget = 1e-2;      // per-job demotion error budget (see EngineOptions)

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

/// Execution backend for one operator (a k-point Hamiltonian or the Poisson
/// stiffness). All methods are driver-thread-only, mirroring the engine's
/// threading contract.
template <class T>
class ExecBackend {
 public:
  virtual ~ExecBackend() = default;
  virtual const char* name() const = 0;
  virtual int nlanes() const = 0;

  /// Refresh the effective potential (no-op for operators without one).
  virtual void set_potential(const std::vector<double>& v_eff) = 0;
  /// Y = op X (block apply).
  virtual void apply(const la::Matrix<T>& X, la::Matrix<T>& Y) = 0;
  /// y = op x (single-vector apply: Lanczos bounds).
  virtual void apply(const std::vector<T>& x, std::vector<T>& y) = 0;
  /// Jacobi-preconditioned CG for op x = b with z = r / laplacian_diagonal
  /// and the Dirichlet rows held fixed (la::jacobi_pcg) — the EP-step
  /// Poisson solve on the stiffness backend. x is the initial guess and is
  /// overwritten; b must vanish on the Dirichlet rows.
  virtual la::SolveReport pcg(const std::vector<T>& b, std::vector<T>& x, double tol,
                              int maxit) = 0;
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
  /// Modeled interconnect seconds of the most recent job (0 when serial).
  virtual double modeled_comm_last_job() const { return 0.0; }
};

/// Single-image backend: executes every stage with the exact statements the
/// pre-refactor ks/ layer ran, so results are bitwise identical to the seed.
template <class T>
class SerialBackend final : public ExecBackend<T> {
 public:
  /// `apply_fused` is the operator; `set_potential` is optional (potential
  /// updates reach a serial Hamiltonian through ks::Hamiltonian directly).
  /// The vector path is the fused apply on 1-column buffers, matching
  /// Hamiltonian::apply(vector) and CellStiffness::apply_add(vector).
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

  void apply(const std::vector<T>& x, std::vector<T>& y) override {
    const index_t n = dofh_->ndofs();
    la::Matrix<T>& X = vec_in_.acquire(n, 1);
    std::copy(x.begin(), x.begin() + n, X.data());
    la::Matrix<T>& Y = vec_out_.acquire(n, 1);
    fused_(X, Y, 0.0, 1.0, nullptr, 0.0);
    // lint: allow(hot-path-alloc): grow-only output sizing; solver callers reuse persistent vectors
    y.resize(static_cast<std::size_t>(n));
    std::copy(Y.data(), Y.data() + n, y.begin());
  }

  la::SolveReport pcg(const std::vector<T>& b, std::vector<T>& x, double tol,
                      int maxit) override {
    auto op = [this](const std::vector<T>& v, std::vector<T>& y) { apply(v, y); };
    return la::jacobi_pcg<T>(op, dofh_->laplacian_diagonal(), dofh_->boundary_dofs(), b, x, tol,
                             maxit);
  }

  /// The three-block pointer-rotated recurrence of ks/chfes.hpp, verbatim:
  /// same fused-apply sequence, same rotation, so the filtered block is
  /// bitwise equal to the pre-refactor inline path.
  void filter_block(la::Matrix<T>& X, index_t col0, index_t ncols, int degree, double a,
                    double b, double a0) override {
    const index_t n = X.rows();
    la::Matrix<T>* Xb = &cf_x_.acquire(n, ncols);
    la::Matrix<T>* Yb = &cf_y_.acquire(n, ncols);
    la::Matrix<T>* Zb = &cf_z_.acquire(n, ncols);
    for (index_t j = 0; j < ncols; ++j)
      std::copy(X.col(col0 + j), X.col(col0 + j) + n, Xb->col(j));
    const double e = (b - a) / 2.0, c = (b + a) / 2.0;
    double sigma = e / (a0 - c);
    const double sigma1 = sigma;
    fused_(*Xb, *Yb, c, sigma1 / e, nullptr, 0.0);
    for (int k = 2; k <= degree; ++k) {
      const double sigma2 = 1.0 / (2.0 / sigma1 - sigma);
      fused_(*Yb, *Zb, c, 2.0 * sigma2 / e, Xb, sigma * sigma2);
      la::Matrix<T>* t = Xb;
      Xb = Yb;
      Yb = Zb;
      Zb = t;
      sigma = sigma2;
    }
    for (index_t j = 0; j < ncols; ++j)
      std::copy(Yb->col(j), Yb->col(j) + n, X.col(col0 + j));
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
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (index_t j = 0; j < X.cols(); ++j)
        if (occ[j] > 1e-12) s += occ[j] * scalar_traits<T>::abs2(X(i, j));
      rho[i] += weight * s / mass[i];
    }
  }

 private:
  const fe::DofHandler* dofh_;
  FusedApplyFn<T> fused_;
  std::function<void(const std::vector<double>&)> set_potential_;
  la::WorkMatrix<T> cf_x_, cf_y_, cf_z_;   // Chebyshev ping-pong blocks
  la::WorkMatrix<T> vec_in_, vec_out_;     // single-vector apply buffers
};

/// Multi-rank backend: every stage runs brick-decomposed on the wrapped
/// RankEngine's lanes (see dd/engine.hpp for the execution model).
template <class T>
class ThreadedBackend final : public ExecBackend<T> {
 public:
  ThreadedBackend(const fe::DofHandler& dofh, EngineOptions opt);

  const char* name() const override { return "threaded"; }
  int nlanes() const override { return engine_.nlanes(); }
  RankEngine<T>& engine() { return engine_; }

  void set_potential(const std::vector<double>& v_eff) override {
    if (hamiltonian_) engine_.set_potential(v_eff);
  }

  void apply(const la::Matrix<T>& X, la::Matrix<T>& Y) override { engine_.apply(X, Y); }

  void apply(const std::vector<T>& x, std::vector<T>& y) override {
    const index_t n = engine_.partition().ndofs();
    la::Matrix<T>& X = vec_in_.acquire(n, 1);
    std::copy(x.begin(), x.begin() + n, X.data());
    la::Matrix<T>& Y = vec_out_.acquire(n, 1);
    engine_.apply(X, Y);
    // lint: allow(hot-path-alloc): grow-only output sizing; solver callers reuse persistent vectors
    y.resize(static_cast<std::size_t>(n));
    std::copy(Y.data(), Y.data() + n, y.begin());
  }

  la::SolveReport pcg(const std::vector<T>& b, std::vector<T>& x, double tol,
                      int maxit) override {
    return engine_.pcg(b, x, tol, maxit);
  }

  void filter_block(la::Matrix<T>& X, index_t col0, index_t ncols, int degree, double a,
                    double b, double a0) override {
    engine_.filter_block(X, col0, ncols, degree, a, b, a0);
  }

  void overlap(const la::Matrix<T>& A, const la::Matrix<T>& B, la::Matrix<T>& S,
               index_t mp_block, bool mixed) override {
    engine_.overlap(A, B, S, mp_block, mixed);
  }

  void accumulate_density(const la::Matrix<T>& X, const std::vector<double>& occ,
                          double weight, std::vector<double>& rho) override {
    engine_.accumulate_density(X, occ, weight, rho);
  }

  double modeled_comm_last_job() const override {
    double s = 0.0;
    for (const auto& st : engine_.last_step_stats()) s += st.modeled;
    return s;
  }

 private:
  bool hamiltonian_;
  RankEngine<T> engine_;
  la::WorkMatrix<T> vec_in_, vec_out_;  // single-vector apply buffers
};

/// Backend for a k-point Hamiltonian. Serial: wraps the caller's fused-apply
/// hook (bind ks::Hamiltonian::apply_fused); potential updates stay with the
/// Hamiltonian, so `serial_set_potential` is usually empty. Threaded: builds
/// the brick-decomposed Hamiltonian lanes from the DofHandler and `kpoint`.
template <class T>
std::unique_ptr<ExecBackend<T>> make_backend(
    const fe::DofHandler& dofh, const BackendOptions& opt, FusedApplyFn<T> serial_apply,
    std::function<void(const std::vector<double>&)> serial_set_potential = {},
    std::array<double, 3> kpoint = {0.0, 0.0, 0.0});

/// Backend for the Poisson stiffness (coef_lap = 1, no mass/potential
/// epilogue). Serial: borrows `K`; its pcg() is la::jacobi_pcg on y = K x,
/// the built-in fe::PoissonSolver CG. Threaded: brick-decomposes the
/// stiffness across lanes; its pcg() is one lane-resident engine job.
std::unique_ptr<ExecBackend<double>> make_stiffness_backend(
    const fe::DofHandler& dofh, const BackendOptions& opt,
    const fe::CellStiffness<double>& K);

extern template class SerialBackend<double>;
extern template class SerialBackend<complex_t>;
extern template class ThreadedBackend<double>;
extern template class ThreadedBackend<complex_t>;

}  // namespace dftfe::dd
