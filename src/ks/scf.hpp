#pragma once

// Self-consistent-field driver for the Kohn-Sham problem (paper Sec. 5,
// Eq. 1): Chebyshev-filtered subspace iteration per k-point, Fermi-Dirac
// occupancies with chemical-potential bisection, density computation (the
// paper's "DC" step), Anderson-accelerated density mixing, FE Poisson
// electrostatics ("EP"), and the total free energy.
//
// Electrostatics follows the smeared-nucleus formulation: each (pseudo)atom
// carries a Gaussian charge Z exp(-r^2/rc^2) / (pi^{3/2} rc^3) whose exact
// potential is the local pseudopotential -Z erf(r/rc)/r. One Poisson solve
// for the net charge (nuclei minus electrons) then yields the full
// electrostatic potential in both periodic (neutral cell) and isolated
// (multipole Dirichlet) settings; Gaussian self-energies and short-range
// pair corrections restore point-ion energetics.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dd/backend.hpp"
#include "dd/engine.hpp"
#include "fe/poisson.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"
#include "xc/functional.hpp"

namespace dftfe::ks {

struct KPointSample {
  std::array<double, 3> k{0.0, 0.0, 0.0};
  double weight = 1.0;
};

/// Smeared nucleus: charge Z, Gaussian width rc, i.e. the local
/// pseudopotential -Z erf(r/rc)/r of the species.
struct GaussianCharge {
  std::array<double, 3> center{0.0, 0.0, 0.0};
  double Z = 1.0;
  double rc = 1.0;
};

struct ScfOptions {
  index_t nstates = 0;  // 0 -> ceil(N/2 * 1.2) + 8
  double temperature = 2e-3;
  int max_iterations = 60;
  double density_tol = 5e-7;  // L2 density residual per electron
  int cheb_degree = 15;
  index_t block_size = 128;
  bool mixed_precision = true;
  index_t mp_block = 64;  // mixed-precision tile width (ChfesOptions::mp_block)
  int first_iteration_cycles = 4;
  double mixing_alpha = 0.3;
  int anderson_depth = 4;
  double poisson_tol = 1e-9;
  bool include_hartree = true;  // disable for non-interacting validation tests
  // true: per-iteration diagnostics log at info; false: at trace (obs/log.hpp)
  bool verbose = false;
  unsigned seed = 42;
  // End-of-iteration hook, invoked on the driver thread after iteration
  // `completed` (1-based) has fully updated the solver state (mixed density,
  // Anderson history, subspaces). save_state() is valid inside; the svc
  // layer writes dftfe.checkpoint.v1 artifacts from here. Not called on the
  // converging iteration (the job finishes instead).
  std::function<void(int completed)> on_iteration;
};

/// Serialized mid-SCF solver state for checkpoint/restart, captured at an
/// iteration boundary by KohnShamDFT::save_state() and re-installed with
/// load_state(). Scalar-type erased: complex subspaces store interleaved
/// (re, im) doubles. A resumed solve() replays the exact arithmetic path of
/// the uninterrupted run — same mixed density, Poisson warm start, Anderson
/// history, subspace, and Ritz values — so both converge to the identical
/// energy. The svc layer wraps this in the versioned dftfe.checkpoint.v1
/// artifact (svc/checkpoint.hpp).
struct ScfState {
  int iterations = 0;           // completed SCF iterations
  bool complex_scalars = false;
  index_t ndofs = 0;
  index_t nstates = 0;
  std::vector<double> rho;      // mixed density entering iteration `iterations`
  std::vector<double> phi;      // Poisson solution (PCG warm start)
  std::vector<std::vector<double>> hist_rho;  // Anderson history, oldest first
  std::vector<std::vector<double>> hist_res;
  std::vector<double> residual_history;
  struct KSubspace {
    std::vector<double> eigenvalues;  // Ritz values of the last RR
    std::vector<double> coeffs;       // column-major subspace; complex interleaved
  };
  std::vector<KSubspace> kpoints;
};

struct EnergyBreakdown {
  double band = 0.0;
  double kinetic_ts = 0.0;
  double electrostatic = 0.0;
  double xc = 0.0;
  double entropy = 0.0;  // -TS
  double total = 0.0;
  double fermi_level = 0.0;
};

struct ScfResult {
  bool converged = false;
  int iterations = 0;
  EnergyBreakdown energy;
  std::vector<double> residual_history;
};

template <class T>
class KohnShamDFT {
 public:
  /// `backend` runs every solver stage (per-k ChFES cycles, density
  /// accumulation, the EP-step Poisson CG): serial (the ks-layer arithmetic,
  /// the default) or threaded brick-rank lanes. Throws std::invalid_argument
  /// naming the `opt` field a solve cannot run with (ChfesOptions::validate,
  /// and max_iterations or first_iteration_cycles < 1).
  KohnShamDFT(const fe::DofHandler& dofh, std::shared_ptr<xc::XCFunctional> xcf,
              std::vector<KPointSample> kpts, ScfOptions opt = {},
              dd::BackendOptions backend = {});

  /// Analytic external potential mode (validation / model problems).
  void set_external_potential(std::vector<double> v_ext, double n_electrons);
  /// Smeared-nucleus mode (materials systems with local pseudopotentials).
  void set_nuclei(const std::vector<GaussianCharge>& nuclei, double n_electrons);

  ScfResult solve();

  /// Capture the solver state at an SCF iteration boundary. Valid inside an
  /// ScfOptions::on_iteration hook or after solve() returned.
  ScfState save_state() const;
  /// Install a previously captured state; the next solve() resumes from
  /// iteration `st.iterations` on the exact arithmetic path the
  /// uninterrupted run would have taken. Throws if the state's scalar type
  /// or dof count does not match this solver.
  void load_state(ScfState st);

  const std::vector<double>& density() const { return rho_; }
  const std::vector<double>& effective_potential() const { return v_eff_; }
  int n_kpoints() const { return static_cast<int>(kpts_.size()); }
  const std::vector<double>& eigenvalues(int ik) const { return solvers_[ik]->eigenvalues(); }
  const la::Matrix<T>& wavefunctions(int ik) const { return solvers_[ik]->subspace(); }
  std::vector<double> occupations(int ik, double mu) const;
  Hamiltonian<T>& hamiltonian(int ik) { return *hams_[ik]; }
  index_t nstates() const { return nstates_; }
  double n_electrons() const { return nelectrons_; }

  /// Update v_eff from the current density (exposed for invDFT and benches).
  void update_effective_potential();
  /// Density from the current subspaces and a chemical potential (the DC
  /// step, routed through the execution backends built by solve(); call
  /// during or after solve()).
  std::vector<double> compute_density(double mu);
  /// Chemical potential such that the states hold n_electrons.
  double find_fermi_level() const;

  /// Hellmann-Feynman forces on the smeared nuclei (nuclei mode, call after
  /// solve()). Because the FE mesh is decoupled from the atom positions
  /// (the reformulation of Ref. [33] the paper builds on), Pulay terms
  /// vanish and the force is the electrostatic pull of the net-charge
  /// potential on each Gaussian core plus the short-range pair correction:
  ///   F_a = -Z_a int (d g_a / d R_a)(r) phi_c(r) dr - d E_pair / d R_a.
  std::vector<std::array<double, 3>> forces() const;

 private:
  ChfesOptions chfes_options() const {
    return {opt_.cheb_degree, opt_.block_size, opt_.mixed_precision, opt_.mp_block};
  }
  void init_density();
  double xc_energy_and_potential(const std::vector<double>& rho, std::vector<double>& vxc,
                                 bool& used_gradient) const;
  double electrostatics(const std::vector<double>& rho, std::vector<double>& v_es);
  EnergyBreakdown compute_energy(const std::vector<double>& rho_out,
                                 const std::vector<double>& v_eff_used, double mu);

  const fe::DofHandler* dofh_;
  std::shared_ptr<xc::XCFunctional> xcf_;
  std::vector<KPointSample> kpts_;
  ScfOptions opt_;
  dd::BackendOptions backend_opt_;
  fe::PoissonSolver poisson_;

  std::vector<std::unique_ptr<Hamiltonian<T>>> hams_;
  std::vector<std::unique_ptr<ChebyshevFilteredSolver<T>>> solvers_;
  // Execution backends, rebuilt by solve(): one per k-point Hamiltonian.
  // Threaded runs add a bare-stiffness engine whose lane-resident pcg is
  // installed into poisson_ as its CG hook, so the EP solve runs under the
  // same execution model; serial runs keep poisson_'s built-in CG.
  std::vector<std::unique_ptr<dd::ExecBackend<T>>> backends_;
  std::unique_ptr<dd::RankEngine<double>> es_engine_;

  double nelectrons_ = 0.0;
  index_t nstates_ = 0;
  std::vector<double> rho_, v_eff_;
  std::vector<double> v_ext_;         // analytic-potential mode
  std::vector<double> rho_nuclei_;    // smeared nuclear charge (nuclei mode)
  std::vector<GaussianCharge> nuclei_;
  bool nuclei_mode_ = false;
  double e_self_ = 0.0, e_pair_corr_ = 0.0;
  std::vector<double> phi_;  // Poisson solution (warm start across SCF)

  // Anderson mixing history and progress, members (not solve() locals) so
  // save_state() can capture them mid-solve from the on_iteration hook.
  std::vector<std::vector<double>> hist_rho_, hist_res_;
  std::vector<double> residual_history_;
  int iterations_done_ = 0;
  std::optional<ScfState> pending_resume_;  // consumed by the next solve()
};

extern template class KohnShamDFT<double>;
extern template class KohnShamDFT<complex_t>;

}  // namespace dftfe::ks
