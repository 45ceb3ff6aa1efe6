#include "ks/scf.hpp"

#include <cmath>

#include "fe/gradient.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dftfe::ks {

namespace {

double fermi(double e, double mu, double T) {
  const double x = (e - mu) / T;
  if (x > 40.0) return 0.0;
  if (x < -40.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

/// Minimum-image displacement on a (possibly partially) periodic box.
std::array<double, 3> min_image(const fe::Mesh& mesh, const std::array<double, 3>& d) {
  std::array<double, 3> r = d;
  for (int dim = 0; dim < 3; ++dim) {
    if (mesh.axis(dim).periodic) {
      const double L = mesh.axis(dim).length();
      r[dim] -= L * std::round(r[dim] / L);
    }
  }
  return r;
}

}  // namespace

template <class T>
KohnShamDFT<T>::KohnShamDFT(const fe::DofHandler& dofh, std::shared_ptr<xc::XCFunctional> xcf,
                            std::vector<KPointSample> kpts, ScfOptions opt,
                            dd::BackendOptions backend)
    : dofh_(&dofh), xcf_(std::move(xcf)), kpts_(std::move(kpts)), opt_(opt),
      backend_opt_(backend), poisson_(dofh) {
  // Reject, by name, the settings that would hang or crash the solve: with
  // no iteration or no first cycle, find_fermi_level reads empty Ritz values.
  const char* bad = opt_.max_iterations < 1           ? "max_iterations"
                    : opt_.first_iteration_cycles < 1 ? "first_iteration_cycles"
                                                      : nullptr;
  if (bad != nullptr)
    throw std::invalid_argument(std::string("ks::ScfOptions::") + bad + " must be >= 1");
  // fermi() divides by T: at T <= 0 (or NaN) the occupations cannot converge.
  if (!(opt_.temperature > 0.0))
    throw std::invalid_argument("ks::ScfOptions::temperature must be > 0");
  chfes_options().validate("ks::ScfOptions");
  // lint: allow(hot-path-alloc): one-time construction, not the SCF loop
  if (kpts_.empty()) kpts_.push_back({});
  double wsum = 0.0;
  for (const auto& kp : kpts_) wsum += kp.weight;
  for (auto& kp : kpts_) kp.weight /= wsum;
}

template <class T>
void KohnShamDFT<T>::set_external_potential(std::vector<double> v_ext, double n_electrons) {
  v_ext_ = std::move(v_ext);
  nelectrons_ = n_electrons;
  nuclei_mode_ = false;
}

template <class T>
void KohnShamDFT<T>::set_nuclei(const std::vector<GaussianCharge>& nuclei,
                                double n_electrons) {
  nuclei_mode_ = true;
  nelectrons_ = n_electrons;
  nuclei_ = nuclei;
  const index_t n = dofh_->ndofs();
  rho_nuclei_.assign(n, 0.0);
  const fe::Mesh& mesh = dofh_->mesh();

  // Periodic images within a few Gaussian widths.
  for (const auto& nuc : nuclei) {
    const double norm = nuc.Z / (std::pow(kPi, 1.5) * nuc.rc * nuc.rc * nuc.rc);
    const double cutoff = 8.0 * nuc.rc;
#pragma omp parallel for
    for (index_t g = 0; g < n; ++g) {
      const auto p = dofh_->dof_point(g);
      const auto d = min_image(mesh, {p[0] - nuc.center[0], p[1] - nuc.center[1],
                                      p[2] - nuc.center[2]});
      const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
      if (r2 < cutoff * cutoff) rho_nuclei_[g] += norm * std::exp(-r2 / (nuc.rc * nuc.rc));
    }
  }

  // Gaussian self-energy and short-range point-ion pair correction.
  e_self_ = 0.0;
  for (const auto& nuc : nuclei) e_self_ += nuc.Z * nuc.Z / (std::sqrt(2.0 * kPi) * nuc.rc);
  e_pair_corr_ = 0.0;
  for (std::size_t a = 0; a < nuclei.size(); ++a)
    for (std::size_t b = a + 1; b < nuclei.size(); ++b) {
      const auto d = min_image(mesh, {nuclei[a].center[0] - nuclei[b].center[0],
                                      nuclei[a].center[1] - nuclei[b].center[1],
                                      nuclei[a].center[2] - nuclei[b].center[2]});
      const double R = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
      const double w = std::sqrt(nuclei[a].rc * nuclei[a].rc + nuclei[b].rc * nuclei[b].rc);
      if (R > 1e-8 && R < 10.0 * w)
        e_pair_corr_ += nuclei[a].Z * nuclei[b].Z * std::erfc(R / w) / R;
    }
}

template <class T>
void KohnShamDFT<T>::init_density() {
  const index_t n = dofh_->ndofs();
  rho_.assign(n, 0.0);
  if (nuclei_mode_) {
    // Electron density proportional to the smeared nuclear charge.
    double q = dofh_->integrate(rho_nuclei_);
    for (index_t i = 0; i < n; ++i) rho_[i] = rho_nuclei_[i] * nelectrons_ / q;
  } else {
    const double v = dofh_->mesh().volume();
    for (index_t i = 0; i < n; ++i) rho_[i] = nelectrons_ / v;
  }
}

template <class T>
double KohnShamDFT<T>::xc_energy_and_potential(const std::vector<double>& rho,
                                               std::vector<double>& vxc,
                                               bool& used_gradient) const {
  const index_t n = dofh_->ndofs();
  vxc.assign(n, 0.0);
  if (!xcf_) {
    used_gradient = false;
    return 0.0;
  }
  std::vector<double> sigma, exc, vrho, vsigma;
  std::array<std::vector<double>, 3> grad;
  used_gradient = xcf_->needs_gradient();
  if (used_gradient) {
    grad = fe::nodal_gradient(*dofh_, rho);
    // lint: allow(hot-path-alloc): per-DH GGA scratch, sized once per potential update
    sigma.resize(n);
    for (index_t i = 0; i < n; ++i)
      sigma[i] = grad[0][i] * grad[0][i] + grad[1][i] * grad[1][i] + grad[2][i] * grad[2][i];
  }
  xcf_->evaluate(rho, sigma, exc, vrho, vsigma);
  vxc = vrho;
  if (used_gradient) {
    // v_xc -= 2 div(vsigma grad rho)
    std::array<std::vector<double>, 3> w;
    for (int d = 0; d < 3; ++d) {
      // lint: allow(hot-path-alloc): per-DH GGA scratch, sized once per potential update
      w[d].resize(n);
      for (index_t i = 0; i < n; ++i) w[d][i] = vsigma[i] * grad[d][i];
    }
    const std::vector<double> div = fe::nodal_divergence(*dofh_, w);
    for (index_t i = 0; i < n; ++i) vxc[i] -= 2.0 * div[i];
  }
  double e = 0.0;
  const auto& mass = dofh_->mass();
  for (index_t i = 0; i < n; ++i) e += mass[i] * rho[i] * exc[i];
  return e;
}

template <class T>
double KohnShamDFT<T>::electrostatics(const std::vector<double>& rho,
                                      std::vector<double>& v_es) {
  const index_t n = dofh_->ndofs();
  const auto& mass = dofh_->mass();
  v_es.assign(n, 0.0);
  if (nuclei_mode_) {
    // Net charge rho_c = rho_nuclei - rho; -lap phi = 4 pi rho_c.
    std::vector<double> rho_c(n);
    for (index_t i = 0; i < n; ++i) rho_c[i] = rho_nuclei_[i] - rho[i];
    poisson_.solve(rho_c, phi_, opt_.poisson_tol);
    double e = 0.0;
    for (index_t i = 0; i < n; ++i) {
      v_es[i] = -phi_[i];  // electrons carry charge -1
      e += 0.5 * mass[i] * rho_c[i] * phi_[i];
    }
    return e - e_self_ + e_pair_corr_;
  }
  // Analytic-potential mode: Hartree of the electrons (optional) + v_ext.
  double e = 0.0;
  if (opt_.include_hartree) {
    poisson_.solve(rho, phi_, opt_.poisson_tol);
    for (index_t i = 0; i < n; ++i) {
      v_es[i] = phi_[i];
      e += 0.5 * mass[i] * rho[i] * phi_[i];
    }
  }
  for (index_t i = 0; i < n; ++i) {
    v_es[i] += v_ext_[i];
    e += mass[i] * rho[i] * v_ext_[i];
  }
  return e;
}

template <class T>
void KohnShamDFT<T>::update_effective_potential() {
  obs::TraceSpan t("DH", "scf");
  std::vector<double> vxc, v_es;
  bool used_gradient = false;
  xc_energy_and_potential(rho_, vxc, used_gradient);
  electrostatics(rho_, v_es);
  // lint: allow(hot-path-alloc): grow-once member sizing, no-op after the first DH
  v_eff_.resize(dofh_->ndofs());
  for (index_t i = 0; i < dofh_->ndofs(); ++i) v_eff_[i] = v_es[i] + vxc[i];
  for (auto& h : hams_) h->set_potential(v_eff_);
  // Fan the refreshed potential out to the execution backends (threaded
  // lanes keep their own slab-local slices; serial backends no-op — the
  // Hamiltonian update above already covers them).
  for (auto& be : backends_) be->set_potential(v_eff_);
}

template <class T>
std::vector<double> KohnShamDFT<T>::occupations(int ik, double mu) const {
  const auto& ev = solvers_[ik]->eigenvalues();
  std::vector<double> f(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) f[i] = 2.0 * fermi(ev[i], mu, opt_.temperature);
  return f;
}

template <class T>
double KohnShamDFT<T>::find_fermi_level() const {
  auto count = [&](double mu) {
    double ne = 0.0;
    for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
      const auto& ev = solvers_[ik]->eigenvalues();
      for (double e : ev) ne += kpts_[ik].weight * 2.0 * fermi(e, mu, opt_.temperature);
    }
    return ne;
  };
  double lo = 1e300, hi = -1e300;
  for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
    const auto& ev = solvers_[ik]->eigenvalues();
    lo = std::min(lo, ev.front());
    hi = std::max(hi, ev.back());
  }
  lo -= 10.0;
  hi += 10.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (count(mid) < nelectrons_)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

template <class T>
std::vector<double> KohnShamDFT<T>::compute_density(double mu) {
  obs::TraceSpan t("DC", "scf");
  ScopedFlopStep step("DC");
  const index_t n = dofh_->ndofs();
  std::vector<double> rho(n, 0.0);
  for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
    const auto f = occupations(static_cast<int>(ik), mu);
    const auto& X = solvers_[ik]->subspace();
    FlopCounter::global().add(3.0 * static_cast<double>(n) * X.cols() *
                              scalar_traits<T>::flop_factor);
    // Backend DC: serial runs the row loop; threaded accumulates each lane's
    // disjoint owned rows (bitwise equal for a given subspace).
    backends_[ik]->accumulate_density(X, f, kpts_[ik].weight, rho);
  }
  return rho;
}

template <class T>
EnergyBreakdown KohnShamDFT<T>::compute_energy(const std::vector<double>& rho_out,
                                               const std::vector<double>& v_eff_used,
                                               double mu) {
  EnergyBreakdown e;
  e.fermi_level = mu;
  const index_t n = dofh_->ndofs();
  const auto& mass = dofh_->mass();
  for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
    const auto& ev = solvers_[ik]->eigenvalues();
    const auto f = occupations(static_cast<int>(ik), mu);
    for (std::size_t i = 0; i < ev.size(); ++i) {
      e.band += kpts_[ik].weight * f[i] * ev[i];
      const double occ = f[i] / 2.0;
      if (occ > 1e-12 && occ < 1.0 - 1e-12)
        e.entropy += kpts_[ik].weight * 2.0 * opt_.temperature *
                     (occ * std::log(occ) + (1.0 - occ) * std::log(1.0 - occ));
    }
  }
  double n_dot_veff = 0.0;
  for (index_t i = 0; i < n; ++i) n_dot_veff += mass[i] * rho_out[i] * v_eff_used[i];
  e.kinetic_ts = e.band - n_dot_veff;

  std::vector<double> vxc, v_es;
  bool used_gradient = false;
  e.xc = xc_energy_and_potential(rho_out, vxc, used_gradient);
  e.electrostatic = electrostatics(rho_out, v_es);
  e.total = e.kinetic_ts + e.electrostatic + e.xc + e.entropy;
  return e;
}

template <class T>
ScfResult KohnShamDFT<T>::solve() {
  obs::TraceSpan span("SCF", "scf");
  auto& metrics = obs::MetricsRegistry::global();
  const index_t n = dofh_->ndofs();
  const auto& mass = dofh_->mass();
  nstates_ = opt_.nstates > 0
                 ? opt_.nstates
                 : static_cast<index_t>(std::ceil(nelectrons_ / 2.0 * 1.2)) + 8;
  if (nstates_ > n) nstates_ = n;

  // Build per-k Hamiltonians, solvers, and execution backends.
  hams_.clear();
  solvers_.clear();
  poisson_.set_cg({});  // detach before the old engine dies
  backends_.clear();
  es_engine_.reset();
  const ChfesOptions copt = chfes_options();
  for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
    // lint: allow(hot-path-alloc): per-solve setup, outside the iteration loop
    hams_.push_back(std::make_unique<Hamiltonian<T>>(*dofh_, kpts_[ik].k));
    // lint: allow(hot-path-alloc): per-solve setup, outside the iteration loop
    solvers_.push_back(
        // lint: allow(hot-path-alloc): per-solve setup, outside the iteration loop
        std::make_unique<ChebyshevFilteredSolver<T>>(*hams_[ik], nstates_, copt));
    solvers_[ik]->initialize_random(opt_.seed + static_cast<unsigned>(ik));
    // The serial backend borrows the Hamiltonian's fused apply; potential
    // updates reach it through the Hamiltonian itself (empty hook). The
    // threaded backend rebuilds the operator slab-locally from the dofs.
    Hamiltonian<T>* h = hams_[ik].get();
    // lint: allow(hot-path-alloc): per-solve setup, outside the iteration loop
    backends_.push_back(dd::make_backend<T>(
        *dofh_, backend_opt_,
        [h](const la::Matrix<T>& A, la::Matrix<T>& B, double c, double s,
            const la::Matrix<T>* Z, double zc) { h->apply_fused(A, B, c, s, Z, zc); },
        {}, kpts_[ik].k));
    solvers_[ik]->set_backend(backends_[ik].get());
  }
  // The EP step's CG runs under the same execution model as the eigensolver
  // stages: la::pcg either way. Serial keeps poisson_'s built-in serial_cg;
  // threaded runs one lane-resident pcg job per solve on a bare-stiffness
  // engine, with the wire pinned to FP64: a reduced-precision stiffness
  // apply caps the achievable PCG residual near the wire's rounding floor
  // (~1e-8 for FP32), above the 1e-9 Poisson tolerance — the solve would
  // stagnate and burn its full iteration budget every EP step instead of
  // converging.
  if (backend_opt_.kind == dd::BackendKind::threaded) {
    dd::BackendOptions es_opt = backend_opt_;
    es_opt.wire = dd::Wire::fp64;
    // lint: allow(hot-path-alloc): per-solve setup, outside the iteration loop
    es_engine_ = std::make_unique<dd::RankEngine<double>>(*dofh_, es_opt,
                                                         dd::Operator::stiffness);
    poisson_.set_cg([eng = es_engine_.get()](const std::vector<double>& b,
                                             std::vector<double>& x, double tol, int maxit) {
      return eng->pcg(b, x, tol, maxit);
    });
  }
  obs::MetricsRegistry::global().gauge_set(
      "scf.backend.threaded", backend_opt_.kind == dd::BackendKind::threaded ? 1.0 : 0.0);
  obs::MetricsRegistry::global().gauge_set("scf.backend.nlanes",
                                           static_cast<double>(backends_[0]->nlanes()));

  // Fresh start or checkpoint resume. A resumed solve reinstalls the mixed
  // density, Poisson warm start, Anderson history, and per-k subspaces /
  // Ritz values captured at an iteration boundary, then continues the loop
  // at the saved iteration count — every statement downstream sees the same
  // inputs the uninterrupted run would have, so the arithmetic path (and the
  // converged energy) is identical.
  int start_iter = 0;
  if (pending_resume_.has_value()) {
    ScfState st = std::move(*pending_resume_);
    pending_resume_.reset();
    if (st.ndofs != n || st.nstates != nstates_ ||
        st.kpoints.size() != kpts_.size())
      throw std::runtime_error("KohnShamDFT: checkpoint state does not match this problem");
    rho_ = std::move(st.rho);
    phi_ = std::move(st.phi);
    hist_rho_ = std::move(st.hist_rho);
    hist_res_ = std::move(st.hist_res);
    residual_history_ = std::move(st.residual_history);
    for (std::size_t ik = 0; ik < kpts_.size(); ++ik)
      solvers_[ik]->restore_subspace(st.kpoints[ik].coeffs,
                                     std::move(st.kpoints[ik].eigenvalues));
    start_iter = st.iterations;
    iterations_done_ = st.iterations;
  } else {
    init_density();
    hist_rho_.clear();
    hist_res_.clear();
    residual_history_.clear();
    iterations_done_ = 0;
  }
  ScfResult result;
  result.iterations = start_iter;
  // Memory ledger: the CholGS/RR scratch of the k-point solvers (RunReport
  // memory.pools.chfes), published once per solve.
  auto publish_scratch = [&] {
    double bytes = 0.0;
    for (const auto& s : solvers_) bytes += static_cast<double>(s->scratch_highwater_bytes());
    metrics.gauge_set("mem.pool.chfes.highwater_bytes", bytes);
  };

  for (int iter = start_iter; iter < opt_.max_iterations; ++iter) {
    obs::TraceSpan iter_span("SCF-iter", "scf");
    update_effective_potential();
    const std::vector<double> v_eff_used = v_eff_;

    const int cycles = (iter == 0) ? opt_.first_iteration_cycles : 1;
    for (int c = 0; c < cycles; ++c)
      for (auto& s : solvers_) s->cycle();

    const double mu = find_fermi_level();
    const std::vector<double> rho_out = compute_density(mu);

    // Density residual (L2, per electron).
    std::vector<double> res(n);
    double r2 = 0.0;
    for (index_t i = 0; i < n; ++i) {
      res[i] = rho_out[i] - rho_[i];
      r2 += mass[i] * res[i] * res[i];
    }
    const double rnorm = std::sqrt(r2) / nelectrons_;
    // lint: allow(hot-path-alloc): per-iteration diagnostic, O(1) per SCF step
    residual_history_.push_back(rnorm);
    result.iterations = iter + 1;
    iterations_done_ = iter + 1;
    metrics.series_append("scf.residual", rnorm);
    metrics.series_append("scf.fermi_level", mu);
    metrics.series_append("scf.cheb_degree", static_cast<double>(opt_.cheb_degree));
    // Band energy at this iteration's Fermi level — the convergence-record
    // energy series (cheaper than the full EnergyBreakdown every iteration).
    double eband = 0.0;
    for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
      const auto& ev = solvers_[ik]->eigenvalues();
      const auto f = occupations(static_cast<int>(ik), mu);
      for (std::size_t i = 0; i < ev.size(); ++i) eband += kpts_[ik].weight * f[i] * ev[i];
    }
    metrics.series_append("scf.band_energy", eband);
    DFTFE_LOG_AT(obs::level_for(opt_.verbose))
        << "  [scf] iter " << iter << "  residual " << rnorm << "  mu " << mu;

    if (rnorm < opt_.density_tol) {
      result.converged = true;
      result.energy = compute_energy(rho_out, v_eff_used, mu);
      rho_ = rho_out;
      result.residual_history = residual_history_;
      metrics.gauge_set("scf.converged", 1.0);
      publish_scratch();
      return result;
    }

    // Anderson mixing on the density.
    // lint: allow(hot-path-alloc): Anderson history ring, bounded by anderson_depth+1
    hist_rho_.push_back(rho_);
    // lint: allow(hot-path-alloc): Anderson history ring, bounded by anderson_depth+1
    hist_res_.push_back(res);
    if (static_cast<int>(hist_rho_.size()) > opt_.anderson_depth + 1) {
      hist_rho_.erase(hist_rho_.begin());
      hist_res_.erase(hist_res_.begin());
    }
    const int m = static_cast<int>(hist_rho_.size()) - 1;
    metrics.series_append("scf.anderson_depth", m);
    std::vector<double> rho_next(n);
    if (m >= 1) {
      // Minimize || res_k - sum_j th_j (res_k - res_{k-1-j}) || in the mass
      // inner product; small dense normal equations solved by elimination.
      la::MatrixD A(m, m);
      std::vector<double> b(m, 0.0);
      const auto& rk = hist_res_.back();
      for (int p = 0; p < m; ++p) {
        for (int q = 0; q < m; ++q) {
          double s = 0.0;
          for (index_t i = 0; i < n; ++i)
            s += mass[i] * (rk[i] - hist_res_[m - 1 - p][i]) * (rk[i] - hist_res_[m - 1 - q][i]);
          A(p, q) = s;
        }
        double s = 0.0;
        for (index_t i = 0; i < n; ++i) s += mass[i] * rk[i] * (rk[i] - hist_res_[m - 1 - p][i]);
        b[p] = s;
      }
      for (int p = 0; p < m; ++p) A(p, p) += 1e-12 * (A(p, p) + 1.0);
      // Gaussian elimination with partial pivoting on the tiny system.
      std::vector<double> th(b);
      for (int col = 0; col < m; ++col) {
        int piv = col;
        for (int r = col + 1; r < m; ++r)
          if (std::abs(A(r, col)) > std::abs(A(piv, col))) piv = r;
        for (int q = 0; q < m; ++q) std::swap(A(col, q), A(piv, q));
        std::swap(th[col], th[piv]);
        for (int r = col + 1; r < m; ++r) {
          const double fac = A(r, col) / A(col, col);
          for (int q = col; q < m; ++q) A(r, q) -= fac * A(col, q);
          th[r] -= fac * th[col];
        }
      }
      for (int col = m - 1; col >= 0; --col) {
        for (int q = col + 1; q < m; ++q) th[col] -= A(col, q) * th[q];
        th[col] /= A(col, col);
      }
      for (index_t i = 0; i < n; ++i) {
        double rho_bar = hist_rho_.back()[i], res_bar = hist_res_.back()[i];
        for (int p = 0; p < m; ++p) {
          rho_bar -= th[p] * (hist_rho_.back()[i] - hist_rho_[m - 1 - p][i]);
          res_bar -= th[p] * (hist_res_.back()[i] - hist_res_[m - 1 - p][i]);
        }
        rho_next[i] = rho_bar + opt_.mixing_alpha * res_bar;
      }
    } else {
      for (index_t i = 0; i < n; ++i) rho_next[i] = rho_[i] + opt_.mixing_alpha * res[i];
    }
    // Keep the density positive and correctly normalized.
    for (index_t i = 0; i < n; ++i) rho_next[i] = std::max(rho_next[i], 0.0);
    const double q = dofh_->integrate(rho_next);
    for (index_t i = 0; i < n; ++i) rho_next[i] *= nelectrons_ / q;
    rho_ = std::move(rho_next);

    // Iteration boundary: the mixed density, Anderson history, and subspaces
    // are exactly the inputs of iteration iter+1 — the checkpointable point.
    if (opt_.on_iteration) opt_.on_iteration(iter + 1);
  }

  // Not converged: report the last state faithfully.
  metrics.gauge_set("scf.converged", 0.0);
  update_effective_potential();
  const double mu = find_fermi_level();
  result.energy = compute_energy(rho_, v_eff_, mu);
  result.residual_history = residual_history_;
  publish_scratch();
  return result;
}

template <class T>
ScfState KohnShamDFT<T>::save_state() const {
  if (solvers_.empty())
    throw std::runtime_error("KohnShamDFT::save_state: no active solve to capture");
  ScfState st;
  st.iterations = iterations_done_;
  st.complex_scalars = scalar_traits<T>::is_complex;
  st.ndofs = dofh_->ndofs();
  st.nstates = nstates_;
  st.rho = rho_;
  st.phi = phi_;
  st.hist_rho = hist_rho_;
  st.hist_res = hist_res_;
  st.residual_history = residual_history_;
  // lint: allow(hot-path-alloc): checkpoint capture, once per on_iteration hook call
  st.kpoints.resize(kpts_.size());
  for (std::size_t ik = 0; ik < kpts_.size(); ++ik) {
    auto& ksub = st.kpoints[ik];
    ksub.eigenvalues = solvers_[ik]->eigenvalues();
    const la::Matrix<T>& X = solvers_[ik]->subspace();
    const T* d = X.data();
    if constexpr (scalar_traits<T>::is_complex) {
      // lint: allow(hot-path-alloc): checkpoint capture, once per on_iteration hook call
      ksub.coeffs.resize(2 * static_cast<std::size_t>(X.size()));
      for (index_t i = 0; i < X.size(); ++i) {
        ksub.coeffs[2 * static_cast<std::size_t>(i)] = d[i].real();
        ksub.coeffs[2 * static_cast<std::size_t>(i) + 1] = d[i].imag();
      }
    } else {
      ksub.coeffs.assign(d, d + X.size());
    }
  }
  return st;
}

template <class T>
void KohnShamDFT<T>::load_state(ScfState st) {
  if (st.complex_scalars != scalar_traits<T>::is_complex)
    throw std::runtime_error("KohnShamDFT::load_state: scalar type mismatch");
  if (st.ndofs != dofh_->ndofs())
    throw std::runtime_error("KohnShamDFT::load_state: dof count mismatch");
  if (st.iterations < 1 || st.kpoints.empty())
    throw std::runtime_error("KohnShamDFT::load_state: state captured before any iteration");
  pending_resume_ = std::move(st);
}

template <class T>
std::vector<std::array<double, 3>> KohnShamDFT<T>::forces() const {
  if (!nuclei_mode_ || phi_.empty())
    throw std::runtime_error("KohnShamDFT::forces: requires nuclei mode and a prior solve");
  const index_t n = dofh_->ndofs();
  const auto& mass = dofh_->mass();
  const fe::Mesh& mesh = dofh_->mesh();
  std::vector<std::array<double, 3>> F(nuclei_.size(), {0.0, 0.0, 0.0});

  // Electrostatic pull on the Gaussian cores: F_a = -Z_a int (dg/dR) phi_c.
  for (std::size_t a = 0; a < nuclei_.size(); ++a) {
    const auto& nuc = nuclei_[a];
    const double norm = nuc.Z / (std::pow(kPi, 1.5) * nuc.rc * nuc.rc * nuc.rc);
    const double cutoff2 = 64.0 * nuc.rc * nuc.rc;
    double fx = 0.0, fy = 0.0, fz = 0.0;
#pragma omp parallel for reduction(+ : fx, fy, fz)
    for (index_t g = 0; g < n; ++g) {
      const auto p = dofh_->dof_point(g);
      const auto d = min_image(mesh, {p[0] - nuc.center[0], p[1] - nuc.center[1],
                                      p[2] - nuc.center[2]});
      const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
      if (r2 > cutoff2) continue;
      // d g / d R_a = +2 (r - R_a) / rc^2 * g.
      const double w = mass[g] * phi_[g] * norm * std::exp(-r2 / (nuc.rc * nuc.rc)) * 2.0 /
                       (nuc.rc * nuc.rc);
      fx -= w * d[0];
      fy -= w * d[1];
      fz -= w * d[2];
    }
    F[a] = {fx, fy, fz};
  }

  // Short-range point-ion pair correction.
  for (std::size_t a = 0; a < nuclei_.size(); ++a)
    for (std::size_t b = a + 1; b < nuclei_.size(); ++b) {
      const auto u = min_image(mesh, {nuclei_[a].center[0] - nuclei_[b].center[0],
                                      nuclei_[a].center[1] - nuclei_[b].center[1],
                                      nuclei_[a].center[2] - nuclei_[b].center[2]});
      const double R = std::sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
      const double w = std::sqrt(nuclei_[a].rc * nuclei_[a].rc + nuclei_[b].rc * nuclei_[b].rc);
      if (R < 1e-8 || R > 10.0 * w) continue;
      const double zz = nuclei_[a].Z * nuclei_[b].Z;
      const double dEdR = zz * (-std::erfc(R / w) / (R * R) -
                                2.0 * std::exp(-R * R / (w * w)) / (std::sqrt(kPi) * w * R));
      for (int d = 0; d < 3; ++d) {
        F[a][d] -= dEdR * u[d] / R;
        F[b][d] += dEdR * u[d] / R;
      }
    }
  return F;
}

template class KohnShamDFT<double>;
template class KohnShamDFT<complex_t>;

}  // namespace dftfe::ks
