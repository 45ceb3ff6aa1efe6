// Tests for the top-level Simulation API: mesh/box construction, functional
// factory, Gamma vs k-point dispatch, valence overrides, and end-to-end
// energies on tiny systems.

#include <gtest/gtest.h>

#include "core/relax.hpp"
#include "core/simulation.hpp"
#include "obs/metrics.hpp"

namespace dftfe::core {
namespace {

atoms::Structure single_atom() {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {0.0, 0.0, 0.0}}};
  st.periodic = {false, false, false};
  return st;
}

SimulationOptions fast_options() {
  SimulationOptions opt;
  opt.fe_degree = 3;
  opt.mesh_size = 3.0;
  opt.vacuum = 6.0;
  opt.scf.max_iterations = 30;
  opt.scf.temperature = 0.01;
  return opt;
}

TEST(MakeFunctional, KnownNamesAndErrors) {
  EXPECT_EQ(make_functional("LDA")->name(), "LDA-PW92");
  EXPECT_EQ(make_functional("PBE")->name(), "GGA-PBE");
  EXPECT_EQ(make_functional("none"), nullptr);
  EXPECT_THROW(make_functional("B3LYP"), std::invalid_argument);
}

TEST(MakeFunctional, SurrogateMlxcTracksPbeOracle) {
  auto mlxc = make_functional("MLXC");
  auto pbe = make_functional("PBE");
  std::vector<double> rho{0.05, 0.4}, sigma{0.02, 0.3};
  std::vector<double> e1, v1, s1, e2, v2, s2;
  mlxc->evaluate(rho, sigma, e1, v1, s1);
  pbe->evaluate(rho, sigma, e2, v2, s2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(e1[i], e2[i], 0.08 * std::abs(e2[i]));
    EXPECT_NEAR(v1[i], v2[i], 0.12 * std::abs(v2[i]));
  }
}

TEST(Simulation, IsolatedBoxAddsVacuumAndCentersAtoms) {
  Simulation sim(single_atom(), fast_options());
  const auto& st = sim.structure();
  EXPECT_NEAR(st.atoms[0].pos[0], 6.0, 1e-12);  // vacuum padding
  EXPECT_NEAR(st.box[0], 12.0, 1e-12);
  EXPECT_GT(sim.dofs().ndofs(), 100);
  EXPECT_DOUBLE_EQ(sim.n_electrons(), 2.0);
}

TEST(Simulation, PeriodicBoxKeepsSupercell) {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {1.0, 1.0, 1.0}}};
  st.box = {8.0, 8.0, 8.0};
  st.periodic = {true, true, true};
  Simulation sim(std::move(st), fast_options());
  EXPECT_NEAR(sim.structure().box[0], 8.0, 1e-12);
  EXPECT_NEAR(sim.structure().atoms[0].pos[0], 1.0, 1e-12);
}

TEST(Simulation, ZOverrideChangesElectronCount) {
  auto opt = fast_options();
  opt.z_override[atoms::Species::X] = 4.0;
  Simulation sim(single_atom(), opt);
  EXPECT_DOUBLE_EQ(sim.n_electrons(), 4.0);
}

TEST(Simulation, GammaRunProducesBoundAtom) {
  auto opt = fast_options();
  Simulation sim(single_atom(), opt);
  const auto res = sim.run();
  EXPECT_TRUE(res.scf.converged);
  EXPECT_LT(res.energy, 0.0);
  EXPECT_EQ(res.natoms, 1);
  EXPECT_NO_THROW(sim.gamma_solver());
  EXPECT_THROW(sim.kpoint_solver(), std::runtime_error);
}


TEST(Simulation, ForcesAvailableAfterRunAndSumToZero) {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {0.0, 0.0, 0.0}}, {atoms::Species::X, {4.6, 0.0, 0.0}}};
  st.periodic = {false, false, false};
  Simulation sim(std::move(st), fast_options());
  EXPECT_THROW(sim.forces(), std::runtime_error);  // before run()
  sim.run();
  const auto F = sim.forces();
  ASSERT_EQ(F.size(), 2u);
  for (int d = 0; d < 3; ++d) EXPECT_NEAR(F[0][d] + F[1][d], 0.0, 1e-3);  // Newton III
}

TEST(Simulation, KpointRunUsesComplexPath) {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {0.0, 0.0, 0.0}}};
  st.box = {7.0, 7.0, 7.0};
  st.periodic = {true, true, true};
  auto opt = fast_options();
  opt.kpoints = {{{0.0, 0.0, 0.0}, 1.0}, {{0.0, 0.0, kPi / 7.0}, 1.0}};
  opt.scf.max_iterations = 20;
  Simulation sim(std::move(st), opt);
  const auto res = sim.run();
  EXPECT_NO_THROW(sim.kpoint_solver());
  EXPECT_THROW(sim.gamma_solver(), std::runtime_error);
  EXPECT_EQ(sim.kpoint_solver().n_kpoints(), 2);
  EXPECT_LT(res.energy, 0.5);
}


TEST(Relax, DimerRelaxationReducesForces) {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {0.0, 0.0, 0.0}}, {atoms::Species::X, {2.6, 0.0, 0.0}}};
  st.periodic = {false, false, false};
  auto opt = fast_options();
  opt.scf.density_tol = 1e-7;
  RelaxOptions ropt;
  ropt.max_steps = 8;
  ropt.force_tol = 8e-3;
  const auto res = relax_structure(std::move(st), opt, ropt);
  EXPECT_GE(res.steps, 2);
  // Energy must not increase overall and the force must shrink to threshold
  // (or at least improve markedly if the step budget ran out).
  EXPECT_LE(res.energy, res.energy_history.front() + 1e-8);
  if (!res.converged) {
    EXPECT_LT(res.max_force, 0.1);
  }
  // Relaxed bond length stays physical.
  const double d = std::abs(res.structure.atoms[0].pos[0] - res.structure.atoms[1].pos[0]);
  EXPECT_GT(d, 2.0);
  EXPECT_LT(d, 8.0);
}

TEST(Relax, SerialAndLaneBackendsAgree) {
  // Relaxation is SCF-in-the-loop: any backend divergence compounds through
  // the geometry updates. Pin the halo wire to fp64 so the threaded brick
  // lanes reproduce the serial trajectory to the 1e-10 Ha equivalence bar.
  auto make_dimer = [] {
    atoms::Structure st;
    st.atoms = {{atoms::Species::X, {0.0, 0.0, 0.0}}, {atoms::Species::X, {2.8, 0.0, 0.0}}};
    st.periodic = {false, false, false};
    return st;
  };
  auto opt = fast_options();
  opt.scf.density_tol = 1e-7;
  RelaxOptions ropt;
  ropt.max_steps = 2;
  ropt.force_tol = 1e-6;  // below reach: both runs take the full 2 steps
  const auto serial = relax_structure(make_dimer(), opt, ropt);
  opt.backend.kind = dd::BackendKind::threaded;
  opt.backend.nlanes = 2;
  opt.backend.wire = dd::Wire::fp64;
  const auto threaded = relax_structure(make_dimer(), opt, ropt);
  EXPECT_EQ(serial.steps, threaded.steps);
  EXPECT_NEAR(serial.energy, threaded.energy, 1e-10);
  ASSERT_EQ(serial.energy_history.size(), threaded.energy_history.size());
  for (std::size_t i = 0; i < serial.energy_history.size(); ++i)
    EXPECT_NEAR(serial.energy_history[i], threaded.energy_history[i], 1e-10);
  for (std::size_t a = 0; a < 2; ++a)
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(serial.structure.atoms[a].pos[d], threaded.structure.atoms[a].pos[d], 1e-10);
}

TEST(Simulation, BackendGaugeCountsTheLanesOfAnExplicitGrid) {
  // An explicit grid overrides nlanes: {2, 1, 2} with the default nlanes = 2
  // runs 4 lanes, and scf.backend.nlanes, read off the backend the solve
  // built, must say 4.
  auto opt = fast_options();
  opt.backend.kind = dd::BackendKind::threaded;
  opt.backend.grid = {2, 1, 2};
  ASSERT_EQ(opt.backend.nlanes, 2);
  opt.scf.max_iterations = 1;
  Simulation sim(single_atom(), opt);
  sim.run();
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("scf.backend.threaded"), 1.0);
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("scf.backend.nlanes"), 4.0);
}

TEST(Simulation, GammaAndGammaKpointAgree) {
  // A Gamma-only k-point list must dispatch to the real path and match.
  atoms::Structure st1 = single_atom(), st2 = single_atom();
  auto opt = fast_options();
  Simulation a(std::move(st1), opt);
  opt.kpoints = {{{0.0, 0.0, 0.0}, 1.0}};
  Simulation b(std::move(st2), opt);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_NO_THROW(b.gamma_solver());  // dispatched to the real path
  EXPECT_NEAR(ra.energy, rb.energy, 1e-8);
}

}  // namespace
}  // namespace dftfe::core
