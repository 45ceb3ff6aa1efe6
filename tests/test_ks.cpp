// Tests for the Kohn-Sham engine: Hamiltonian structure, the Chebyshev
// filtered eigensolver (ChFES, Algorithm 1) against analytic spectra and
// dense diagonalization, k-point (complex) paths, mixed-precision accuracy,
// Fermi-Dirac occupancy bookkeeping, and full SCF loops on exactly solvable
// model systems.

#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "fe/gradient.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"
#include "ks/scf.hpp"
#include "la/eig.hpp"
#include "obs/metrics.hpp"
#include "xc/lda.hpp"

namespace dftfe::ks {
namespace {

// ---------- nodal gradient (fe/gradient, exercised with the ks stack) ----------

TEST(NodalGradient, ExactForPolynomials) {
  const fe::Mesh m = fe::make_uniform_mesh(2.0, 2, false);
  fe::DofHandler dofh(m, 4);
  std::vector<double> f(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    f[g] = p[0] * p[0] + 3.0 * p[1] - p[2] * p[0];
  }
  const auto grad = fe::nodal_gradient(dofh, f);
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    EXPECT_NEAR(grad[0][g], 2.0 * p[0] - p[2], 1e-9);
    EXPECT_NEAR(grad[1][g], 3.0, 1e-9);
    EXPECT_NEAR(grad[2][g], -p[0], 1e-9);
  }
}

TEST(NodalGradient, DivergenceOfGradientOfSmoothField) {
  // div(grad(sin Gx)) = -G^2 sin(Gx), periodic.
  const double L = 6.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, true);
  fe::DofHandler dofh(m, 6);
  const double G = 2.0 * kPi / L;
  std::vector<double> f(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g)
    f[g] = std::sin(G * dofh.dof_point(g)[0]);
  const auto grad = fe::nodal_gradient(dofh, f);
  const auto lap = fe::nodal_divergence(dofh, grad);
  double maxerr = 0.0;
  for (index_t g = 0; g < dofh.ndofs(); ++g)
    maxerr = std::max(maxerr, std::abs(lap[g] + G * G * f[g]));
  EXPECT_LT(maxerr, 1e-3 * G * G);
}

// ---------- Hamiltonian apply on an OpenMP team ----------

// The KS apply has no reductions: the nodal pre-scale and epilogue
// (fe::ks_nodal_rows) and the assembly scatter run parallel over columns,
// the batched cell GEMM over cells. So on a mesh above the 8192-dof size
// where the la/ kernels open their parallel regions, a four-thread team
// must reproduce the one-thread result bitwise, in every epilogue branch.
template <class T>
void expect_apply_fused_bitwise_on_four_threads(std::array<double, 3> kpt) {
  const fe::Mesh m = fe::make_uniform_mesh(8.0, 7, true);
  fe::DofHandler dofh(m, 3);
  ASSERT_GT(dofh.ndofs(), 8192);
  Hamiltonian<T> H(dofh, kpt);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -0.4 * std::cos(0.013 * g);
  H.set_potential(v);
  la::Matrix<T> X(dofh.ndofs(), 6), Z(dofh.ndofs(), 6);
  for (index_t i = 0; i < X.size(); ++i) {
    X.data()[i] = T(std::sin(0.21 * i));
    Z.data()[i] = T(std::cos(0.17 * i));
    if constexpr (scalar_traits<T>::is_complex) X.data()[i] += T(0.0, std::cos(0.31 * i));
  }
  struct Branch {
    const char* name;
    double c, scale;
    const la::Matrix<T>* z;
    double zc;
  };
  const Branch branches[] = {{"plain", 0.0, 1.0, nullptr, 0.0},
                             {"shift-scale", 0.7, 1.9, nullptr, 0.0},
                             {"with Z", 0.7, 1.9, &Z, 0.45}};
  const int saved = omp_get_max_threads();
  for (const Branch& br : branches) {
    la::Matrix<T> Y1, Y4;
    omp_set_num_threads(1);
    H.apply_fused(X, Y1, br.c, br.scale, br.z, br.zc);
    omp_set_num_threads(4);
    H.apply_fused(X, Y4, br.c, br.scale, br.z, br.zc);
    ASSERT_EQ(Y1.size(), Y4.size());
    EXPECT_EQ(std::memcmp(Y1.data(), Y4.data(), sizeof(T) * Y1.size()), 0) << br.name;
  }
  omp_set_num_threads(saved);
}

TEST(OpenMpKsApply, ApplyFusedIsBitwiseOnFourThreads) {
  expect_apply_fused_bitwise_on_four_threads<double>({0.0, 0.0, 0.0});
  expect_apply_fused_bitwise_on_four_threads<complex_t>({0.1, 0.0, 0.05});
}

// ---------- ChFES on analytic spectra ----------

TEST(Chfes, FreeElectronSpectrumPeriodicBox) {
  const double L = 2.0 * kPi;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, true);
  fe::DofHandler dofh(m, 4);
  Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), 0.0));
  ChfesOptions opt;
  opt.cheb_degree = 18;
  ChebyshevFilteredSolver<double> solver(H, 9, opt);
  solver.initialize_random(3);
  for (int c = 0; c < 14; ++c) solver.cycle();
  const auto& ev = solver.eigenvalues();
  // 0, then 0.5 with 6-fold degeneracy (G = +-1 in each direction).
  EXPECT_NEAR(ev[0], 0.0, 1e-5);
  for (int i = 1; i <= 6; ++i) EXPECT_NEAR(ev[i], 0.5, 5e-3) << "state " << i;
  EXPECT_GT(ev[7], 0.8);
  EXPECT_LT(solver.max_residual(7), 1e-4);
}

TEST(Chfes, HarmonicOscillatorLadder) {
  // v = 1/2 |r-c|^2 in a large isolated box: eigenvalues 1.5, 2.5 x3, 3.5 x6.
  const double L = 14.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 5, false);
  fe::DofHandler dofh(m, 5);
  Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - L / 2) * (p[0] - L / 2) + (p[1] - L / 2) * (p[1] - L / 2) +
                      (p[2] - L / 2) * (p[2] - L / 2);
    v[g] = 0.5 * r2;
  }
  H.set_potential(v);
  ChebyshevFilteredSolver<double> solver(H, 12);
  solver.initialize_random(5);
  for (int c = 0; c < 16; ++c) solver.cycle();
  const auto& ev = solver.eigenvalues();
  EXPECT_NEAR(ev[0], 1.5, 6e-3);
  for (int i = 1; i <= 3; ++i) EXPECT_NEAR(ev[i], 2.5, 2e-2);
  for (int i = 4; i <= 9; ++i) EXPECT_NEAR(ev[i], 3.5, 6e-2);
}

TEST(Chfes, MatchesDenseDiagonalizationWithPotential) {
  const fe::Mesh m = fe::make_uniform_mesh(3.0, 2, true);
  fe::DofHandler dofh(m, 2);  // 216 dofs
  Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    v[g] = std::sin(2.0 * kPi * p[0] / 3.0) * std::cos(2.0 * kPi * p[1] / 3.0);
  }
  H.set_potential(v);

  // Dense reference.
  const index_t n = dofh.ndofs();
  la::MatrixD Hd(n, n);
  {
    la::MatrixD I(n, n), HI;
    for (index_t i = 0; i < n; ++i) I(i, i) = 1.0;
    H.apply(I, HI);
    Hd = HI;
  }
  std::vector<double> ev_ref;
  la::MatrixD V;
  la::symmetric_eig(Hd, ev_ref, V);

  ChebyshevFilteredSolver<double> solver(H, 10);
  solver.initialize_random(7);
  for (int c = 0; c < 14; ++c) solver.cycle();
  const auto& ev = solver.eigenvalues();
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(ev[i], ev_ref[i], 1e-7) << "state " << i;
}

TEST(Chfes, KpointShiftsFreeElectronSpectrum) {
  // With Bloch vector k, the free-electron levels are |G + k|^2 / 2.
  const double L = 2.0 * kPi;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, true);
  fe::DofHandler dofh(m, 4);
  const std::array<double, 3> kpt{0.3, 0.0, 0.0};
  Hamiltonian<complex_t> H(dofh, kpt);
  H.set_potential(std::vector<double>(dofh.ndofs(), 0.0));
  ChebyshevFilteredSolver<complex_t> solver(H, 6);
  solver.initialize_random(9);
  for (int c = 0; c < 14; ++c) solver.cycle();
  const auto& ev = solver.eigenvalues();
  // Lowest levels: k^2/2, (1-0.3)^2/2, (1+0.3)^2/2, 0.5+k^2/2 (x4 from +-Gy, +-Gz)...
  EXPECT_NEAR(ev[0], 0.5 * 0.3 * 0.3, 1e-4);
  EXPECT_NEAR(ev[1], 0.5 * 0.7 * 0.7, 2e-3);
  EXPECT_NEAR(ev[2], 0.5 * (1.0 + 0.09), 5e-3);
  EXPECT_NEAR(ev[3], 0.5 * (1.0 + 0.09), 5e-3);
}

TEST(Chfes, MixedPrecisionMatchesFullPrecision) {
  const fe::Mesh m = fe::make_uniform_mesh(4.0, 2, true);
  fe::DofHandler dofh(m, 3);
  Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -1.0 / (1.0 + g % 7);
  H.set_potential(v);

  ChfesOptions mp, fp;
  mp.mixed_precision = true;
  mp.mp_block = 4;  // force several off-diagonal FP32 blocks
  fp.mixed_precision = false;
  ChebyshevFilteredSolver<double> s1(H, 12, mp), s2(H, 12, fp);
  s1.initialize_random(11);
  s2.initialize_random(11);
  for (int c = 0; c < 12; ++c) {
    s1.cycle();
    s2.cycle();
  }
  // Mixed precision must retain FP64-level eigenvalues (paper Sec. 5.4.2):
  // error far below the 1e-4 Ha/atom discretization target.
  for (int i = 0; i < 12; ++i)
    EXPECT_NEAR(s1.eigenvalues()[i], s2.eigenvalues()[i], 1e-7) << "state " << i;
}

TEST(Chfes, SubspaceIsOrthonormalAfterCycle) {
  const fe::Mesh m = fe::make_uniform_mesh(3.0, 2, true);
  fe::DofHandler dofh(m, 3);
  Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), 0.0));
  ChebyshevFilteredSolver<double> solver(H, 8);
  solver.initialize_random(13);
  solver.cycle();
  const auto& X = solver.subspace();
  la::MatrixD G(8, 8);
  la::gemm('C', 'N', 1.0, X, X, 0.0, G);
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 8; ++i)
      EXPECT_NEAR(G(i, j), i == j ? 1.0 : 0.0, 5e-6);
}

TEST(Chfes, RecordsStepTimingsAndFlops) {
  ProfileRegistry::global().clear();
  FlopCounter::global().clear();
  const fe::Mesh m = fe::make_uniform_mesh(3.0, 2, true);
  fe::DofHandler dofh(m, 3);
  Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), 0.0));
  ChebyshevFilteredSolver<double> solver(H, 8);
  solver.initialize_random(17);
  solver.cycle();
  for (const char* step : {"CF", "CholGS-S", "CholGS-CI", "CholGS-O", "RR-P", "RR-D", "RR-SR"}) {
    EXPECT_NE(ProfileRegistry::global().find(step), nullptr) << step;
    EXPECT_GT(ProfileRegistry::global().seconds(step), 0.0) << step;
  }
  EXPECT_GT(FlopCounter::global().step("CF"), 0.0);
  EXPECT_GT(FlopCounter::global().step("RR-SR"), 0.0);
  ProfileRegistry::global().clear();
  FlopCounter::global().clear();
}

TEST(Chfes, CholeskyBreakdownRegularizationRetry) {
  // A deliberately rank-deficient subspace (all columns identical) makes the
  // CholGS overlap exactly singular: the plain Cholesky must fail on an
  // exactly-zero pivot, the diagonally-regularized retry must succeed, and
  // the cycle must still produce finite Ritz values.
  const fe::Mesh m = fe::make_uniform_mesh(3.0, 2, true);
  fe::DofHandler dofh(m, 3);
  Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), 0.0));
  ChebyshevFilteredSolver<double> solver(H, 6);
  solver.initialize_random(11);
  la::Matrix<double>& X = solver.subspace();
  for (index_t j = 1; j < X.cols(); ++j)
    std::copy(X.col(0), X.col(0) + X.rows(), X.col(j));
  const double retries_before =
      obs::MetricsRegistry::global().counter("chfes.cholesky_retries");
  ASSERT_NO_THROW(solver.cycle());
  EXPECT_GT(obs::MetricsRegistry::global().counter("chfes.cholesky_retries"), retries_before);
  ASSERT_EQ(solver.eigenvalues().size(), 6u);
  for (double ev : solver.eigenvalues()) EXPECT_TRUE(std::isfinite(ev)) << ev;
}

// ---------- SCF on exactly solvable systems ----------

// ---------- settings that would hang or crash a solve are rejected by name ----------

/// Constructing KohnShamDFT with `opt`, and a ChFES with its eigensolver
/// fields, must throw std::invalid_argument naming `field`.
void expect_rejected(const ScfOptions& opt, const std::string& field, bool chfes_too) {
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 2, false);
  const fe::DofHandler dofh(mesh, 2);
  try {
    KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
    ADD_FAILURE() << "ScfOptions::" << field << " was accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("ScfOptions::" + field), std::string::npos)
        << err.what();
  }
  if (!chfes_too) return;
  const Hamiltonian<double> H(dofh);
  const ChfesOptions copt{opt.cheb_degree, opt.block_size, opt.mixed_precision, opt.mp_block};
  try {
    ChebyshevFilteredSolver<double> solver(H, 4, copt);
    ADD_FAILURE() << "ChfesOptions::" << field << " was accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("ChfesOptions::" + field), std::string::npos)
        << err.what();
  }
}

TEST(ScfOptionsCheck, BlockSizeBelowOneIsRejected) {
  ScfOptions opt;
  opt.block_size = 0;  // the serial filter's column loop would never advance
  expect_rejected(opt, "block_size", true);
}

TEST(ScfOptionsCheck, MixedTileBelowOneIsRejected) {
  ScfOptions opt;
  opt.mp_block = 0;  // each lane's gram tile loop would never advance
  expect_rejected(opt, "mp_block", true);
}

TEST(ScfOptionsCheck, ChebyshevDegreeBelowOneIsRejected) {
  ScfOptions opt;
  opt.cheb_degree = 0;  // serial ran a degree-1 filter, lanes threw mid-solve
  expect_rejected(opt, "cheb_degree", true);
}

TEST(ScfOptionsCheck, MaxIterationsBelowOneIsRejected) {
  ScfOptions opt;
  opt.max_iterations = 0;  // the Fermi level would read an empty Ritz vector
  expect_rejected(opt, "max_iterations", false);
}

TEST(ScfOptionsCheck, FirstIterationCyclesBelowOneIsRejected) {
  ScfOptions opt;
  opt.first_iteration_cycles = 0;  // no cycle before the first Fermi level
  expect_rejected(opt, "first_iteration_cycles", false);
}

TEST(ScfOptionsCheck, TemperatureAtOrBelowZeroIsRejected) {
  // fermi() divides by T: at 0 the occupations are a step and the Fermi
  // level settles below every Ritz value, so the SCF never converges.
  for (const double t : {0.0, -1e-3, std::nan("")}) {
    ScfOptions opt;
    opt.temperature = t;
    expect_rejected(opt, "temperature", false);
  }
}

TEST(Scf, NonInteractingHarmonicTrapTotalEnergy) {
  // Two non-interacting electrons (no Hartree, no XC) in a harmonic trap:
  // both occupy the 1.5 Ha level -> E = 3.0 Ha exactly.
  const double L = 10.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(m, 5);
  ScfOptions opt;
  opt.include_hartree = false;
  opt.temperature = 1e-3;
  opt.nstates = 6;
  opt.max_iterations = 25;
  opt.first_iteration_cycles = 6;
  KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - L / 2) * (p[0] - L / 2) + (p[1] - L / 2) * (p[1] - L / 2) +
                      (p[2] - L / 2) * (p[2] - L / 2);
    v[g] = 0.5 * r2;
  }
  dft.set_external_potential(v, 2.0);
  const auto result = dft.solve();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.energy.total, 3.0, 2e-3);
  EXPECT_NEAR(result.energy.band, 3.0, 2e-3);
  // The density integrates to the electron count.
  EXPECT_NEAR(dofh.integrate(dft.density()), 2.0, 1e-8);
}

TEST(Scf, LdaAtomInIsolatedBoxConverges) {
  // A single smeared "pseudo-atom" (Z = 4) with LDA: the SCF must converge
  // and produce bound occupied states below the Fermi level.
  const double L = 14.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(m, 4);
  ScfOptions opt;
  opt.temperature = 5e-3;
  opt.max_iterations = 40;
  opt.density_tol = 1e-6;
  KohnShamDFT<double> dft(dofh, std::make_shared<xc::LdaPW92>(), {}, opt);
  dft.set_nuclei({{{L / 2, L / 2, L / 2}, 4.0, 1.2}}, 4.0);
  const auto result = dft.solve();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.energy.total, 0.0);  // bound system
  EXPECT_LT(dft.eigenvalues(0)[0], result.energy.fermi_level);
  // Residual history should be (roughly) decreasing.
  const auto& hist = result.residual_history;
  EXPECT_LT(hist.back(), hist.front());
  EXPECT_NEAR(dofh.integrate(dft.density()), 4.0, 1e-6);
}

TEST(Scf, FermiLevelHoldsElectronCount) {
  const double L = 10.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, false);
  fe::DofHandler dofh(m, 3);
  ScfOptions opt;
  opt.include_hartree = false;
  opt.nstates = 8;
  opt.temperature = 0.02;
  opt.max_iterations = 1;
  KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - L / 2) * (p[0] - L / 2) + (p[1] - L / 2) * (p[1] - L / 2) +
                      (p[2] - L / 2) * (p[2] - L / 2);
    v[g] = 0.5 * r2;
  }
  dft.set_external_potential(v, 3.0);  // odd count -> fractional occupancy
  dft.solve();
  const double mu = dft.find_fermi_level();
  const auto f = dft.occupations(0, mu);
  double ne = 0.0;
  for (double fi : f) ne += fi;
  EXPECT_NEAR(ne, 3.0, 1e-6);
}


TEST(Scf, HellmannFeynmanForcesDimer) {
  // Symmetric dimer: forces are equal and opposite along the axis; their
  // magnitude matches a central finite difference of the total energy.
  const double L = 12.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 4, false);
  fe::DofHandler dofh(m, 4);
  auto run = [&](double half_sep, std::vector<std::array<double, 3>>* force) {
    ScfOptions opt;
    opt.temperature = 0.01;
    opt.max_iterations = 40;
    opt.density_tol = 1e-8;
    KohnShamDFT<double> dft(dofh, std::make_shared<xc::LdaPW92>(), {}, opt);
    dft.set_nuclei({{{L / 2 - half_sep, L / 2, L / 2}, 2.0, 1.1},
                    {{L / 2 + half_sep, L / 2, L / 2}, 2.0, 1.1}},
                   4.0);
    const auto res = dft.solve();
    EXPECT_TRUE(res.converged);
    if (force) *force = dft.forces();
    return res.energy.total;
  };
  std::vector<std::array<double, 3>> F;
  const double h = 0.05;
  const double e0 = run(2.4, &F);
  (void)e0;
  // Opposite forces, purely axial by symmetry.
  EXPECT_NEAR(F[0][0], -F[1][0], 5e-4);
  EXPECT_NEAR(F[0][1], 0.0, 5e-4);
  EXPECT_NEAR(F[0][2], 0.0, 5e-4);
  // Finite-difference check: E(d + h) vs E(d - h) where d = separation;
  // moving both nuclei symmetrically changes E by -2 F_x(atom 2) * h ...
  const double ep = run(2.4 + h / 2, nullptr);
  const double em = run(2.4 - h / 2, nullptr);
  // Central difference wrt the *half*-separation: moving both nuclei apart
  // by dR each changes E by (dE/dR2x - dE/dR1x) dR = -2 F2x dR.
  const double dEdhalf = (ep - em) / h;
  EXPECT_NEAR(dEdhalf, -2.0 * F[1][0], 0.15 * std::abs(dEdhalf) + 2e-3);
}

namespace {
/// Harmonic trap potential centered in an [0, L]^3 box.
std::vector<double> trap_potential(const fe::DofHandler& dofh, double L) {
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    v[g] = 0.5 * ((p[0] - L / 2) * (p[0] - L / 2) + (p[1] - L / 2) * (p[1] - L / 2) +
                  (p[2] - L / 2) * (p[2] - L / 2));
  }
  return v;
}
}  // namespace

TEST(Scf, AndersonHistoryTruncatesAtMaxDepth) {
  // anderson_depth bounds the mixing history ring: the per-iteration
  // "scf.anderson_depth" series must climb 0, 1, ... and then saturate at
  // the configured depth once the ring starts erasing its oldest entry.
  const double L = 10.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, false);
  fe::DofHandler dofh(m, 3);
  ScfOptions opt;
  opt.include_hartree = false;
  opt.nstates = 6;
  opt.anderson_depth = 2;
  opt.max_iterations = 6;
  opt.density_tol = 1e-16;  // unreachable: every iteration mixes
  KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
  dft.set_external_potential(trap_potential(dofh, L), 2.0);
  const std::size_t before =
      obs::MetricsRegistry::global().series("scf.anderson_depth").size();
  dft.solve();
  const auto s = obs::MetricsRegistry::global().series("scf.anderson_depth");
  ASSERT_EQ(s.size(), before + 6);
  EXPECT_EQ(s[before + 0], 0.0);
  EXPECT_EQ(s[before + 1], 1.0);
  for (std::size_t i = before + 2; i < s.size(); ++i)
    EXPECT_EQ(s[i], 2.0) << "history exceeded anderson_depth at iteration " << i - before;
}

TEST(Scf, FermiBisectionHandlesDegenerateShell) {
  // Four electrons in the harmonic trap: two fill the s level, the other two
  // spread fractionally (2/3 each) over the threefold-degenerate p shell.
  // The 200-step bisection must pin mu inside the degenerate level and hold
  // the electron count to bisection precision even though count(mu) is
  // nearly flat between shells and jumps steeply across the p level.
  const double L = 10.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, false);
  fe::DofHandler dofh(m, 3);
  ScfOptions opt;
  opt.include_hartree = false;
  opt.nstates = 8;
  opt.temperature = 0.01;
  opt.max_iterations = 1;
  KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
  dft.set_external_potential(trap_potential(dofh, L), 4.0);
  dft.solve();
  const double mu = dft.find_fermi_level();
  const auto f = dft.occupations(0, mu);
  double ne = 0.0;
  for (double fi : f) ne += fi;
  EXPECT_NEAR(ne, 4.0, 1e-6);
  EXPECT_NEAR(f[0], 2.0, 1e-2);  // filled s shell
  // The cubic discretization preserves the p degeneracy, so the three
  // fractional occupancies must come out (nearly) equal.
  for (int i = 1; i <= 3; ++i) EXPECT_NEAR(f[i], 2.0 / 3.0, 0.05) << "p state " << i;
  const auto& ev = dft.eigenvalues(0);
  EXPECT_GT(mu, ev[0]);
  EXPECT_LT(mu, ev[4]);
}

TEST(Scf, CholeskyRetryEngagesInsideFullScf) {
  // An overdriven Chebyshev degree collapses the filtered block toward the
  // dominant eigendirections within a single filter application, making the
  // CholGS Gram numerically singular *inside solve()* (not via a hand-
  // corrupted subspace as in CholeskyBreakdownRegularizationRetry): the
  // regularized retry must engage and the SCF must still land on the
  // healthy trajectory's energy.
  const double L = 10.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, false);
  fe::DofHandler dofh(m, 3);
  auto run = [&](int degree) {
    ScfOptions opt;
    opt.include_hartree = false;
    opt.nstates = 6;
    opt.cheb_degree = degree;
    opt.max_iterations = 2;
    opt.first_iteration_cycles = 2;
    opt.density_tol = 1e-16;
    KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
    dft.set_external_potential(trap_potential(dofh, L), 2.0);
    return dft.solve();
  };
  auto& metrics = obs::MetricsRegistry::global();
  const double before = metrics.counter("chfes.cholesky_retries");
  const auto healthy = run(30);
  EXPECT_EQ(metrics.counter("chfes.cholesky_retries"), before)
      << "reference degree unexpectedly triggered a retry";
  const auto overdriven = run(160);
  EXPECT_GT(metrics.counter("chfes.cholesky_retries"), before);
  EXPECT_TRUE(std::isfinite(overdriven.energy.total));
  EXPECT_NEAR(overdriven.energy.total, healthy.energy.total, 1e-5);
}

TEST(Scf, PeriodicElectronGasIsUniform) {
  // Jellium-like check: smeared charge spread uniformly -> uniform density.
  const double L = 6.0;
  const fe::Mesh m = fe::make_uniform_mesh(L, 3, true);
  fe::DofHandler dofh(m, 3);
  ScfOptions opt;
  opt.temperature = 0.02;
  opt.max_iterations = 30;
  opt.nstates = 12;
  KohnShamDFT<double> dft(dofh, std::make_shared<xc::LdaPW92>(), {}, opt);
  // A "nucleus" smeared so wide it is essentially a uniform background.
  dft.set_nuclei({{{L / 2, L / 2, L / 2}, 4.0, 6.0}}, 4.0);
  const auto result = dft.solve();
  (void)result;
  const auto& rho = dft.density();
  const double mean = dofh.integrate(rho) / dofh.mesh().volume();
  for (index_t g = 0; g < dofh.ndofs(); g += 37)
    EXPECT_NEAR(rho[g], mean, 0.4 * mean);
}

}  // namespace
}  // namespace dftfe::ks
