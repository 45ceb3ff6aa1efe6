// Quickstart: ground state of a small Mg2 dimer with LDA, using the
// top-level public API. Demonstrates structure setup, SCF, the energy
// breakdown, and the telemetry exports: a Chrome trace (open
// quickstart_trace.json in chrome://tracing or ui.perfetto.dev) and the
// RunReport with per-iteration SCF residuals and per-step wall/FLOP
// attribution. Runs in a few seconds on one core.

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "base/table.hpp"
#include "core/simulation.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"

int main() {
  using namespace dftfe;

  // Two Mg atoms (local pseudopotential, 2 valence electrons each) at a
  // realistic bond-ish distance in an isolated box.
  atoms::Structure st;
  st.atoms = {{atoms::Species::Mg, {0.0, 0.0, 0.0}}, {atoms::Species::Mg, {5.8, 0.0, 0.0}}};
  st.periodic = {false, false, false};

  core::SimulationOptions opt;
  opt.functional = "LDA";
  opt.fe_degree = 4;
  opt.mesh_size = 2.8;
  opt.vacuum = 7.0;
  opt.scf.verbose = true;
  opt.scf.temperature = 5e-3;
  // The dimer solves for ~11 states, below the default 64-column mixed-
  // precision tile — the FP32 off-diagonal CholGS/RR policy (and its FP32
  // wire share in the RunReport comm ledger) would be inert. Shrink the tile
  // so the quickstart exercises the paper's mixed-precision path end to end.
  opt.scf.mp_block = 4;

  // Execution-backend selection from the environment via the shared parser
  // (dd::BackendOptions::from_env), so the same binary serves the CI
  // engine-scf-equivalence and brick-scf-equivalence legs:
  // DFTFE_BACKEND=threaded runs the whole solver stack on brick-rank lanes,
  // DFTFE_NLANES takes a total lane count ("8") or an explicit grid
  // ("2,2,2"), and DFTFE_WIRE / DFTFE_ENGINE_MODE / DFTFE_INJECT_WIRE_DELAY
  // / DFTFE_WIRE_BW drive the RunReport attribution demo
  // (tests/report_diff_e2e.py). DFTFE_REPORT overrides the output path.
  try {
    opt.backend = dd::BackendOptions::from_env(opt.backend);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }
  opt.report_path = "quickstart_report.json";
  if (const char* rp = std::getenv("DFTFE_REPORT")) opt.report_path = rp;

  std::printf("== DFT-FE-MLXC quickstart: Mg2 dimer, LDA ==\n");
  std::printf("backend: %s",
              opt.backend.kind == dd::BackendKind::threaded ? "threaded" : "serial");
  if (opt.backend.kind == dd::BackendKind::threaded) {
    if (opt.backend.grid[0] > 0 && opt.backend.grid[1] > 0 && opt.backend.grid[2] > 0)
      std::printf(" (%dx%dx%d brick lanes)", opt.backend.grid[0], opt.backend.grid[1],
                  opt.backend.grid[2]);
    else
      std::printf(" (%d lanes)", opt.backend.nlanes);
  }
  std::printf("\n");
  core::Simulation sim(std::move(st), opt);
  std::printf("atoms: %lld   electrons: %.0f   FE dofs: %lld (degree %d)\n",
              static_cast<long long>(sim.structure().natoms()), sim.n_electrons(),
              static_cast<long long>(sim.dofs().ndofs()), opt.fe_degree);

  const auto res = sim.run();

  TextTable t({"quantity", "value"});
  t.add("SCF converged", res.scf.converged ? "yes" : "no");
  t.add("SCF iterations", res.scf.iterations);
  t.add("total energy (Ha)", TextTable::num(res.energy, 6));
  t.add("energy/atom (Ha)", TextTable::num(res.energy_per_atom, 6));
  t.add("band energy (Ha)", TextTable::num(res.scf.energy.band, 6));
  t.add("kinetic T_s (Ha)", TextTable::num(res.scf.energy.kinetic_ts, 6));
  t.add("electrostatic (Ha)", TextTable::num(res.scf.energy.electrostatic, 6));
  t.add("XC energy (Ha)", TextTable::num(res.scf.energy.xc, 6));
  t.add("Fermi level (Ha)", TextTable::num(res.scf.energy.fermi_level, 6));
  t.print();

  // Machine-greppable line for the CI engine-scf-equivalence leg, which
  // runs this binary once per backend and diffs the two energies to 1e-10.
  std::printf("SCF_TOTAL_ENERGY_HA %.12e\n", res.energy);

  std::printf("lowest Kohn-Sham eigenvalues (Ha):");
  const auto& ev = sim.gamma_solver().eigenvalues(0);
  for (std::size_t i = 0; i < std::min<std::size_t>(ev.size(), 5); ++i)
    std::printf(" %.5f", ev[i]);
  std::printf("\n");

  // Telemetry: the span trace of the whole run for the Chrome/Perfetto
  // viewer; the RunReport (span tree, per-step wall times and FLOPs, every
  // metrics series) is written by Simulation::run() (report_path).
  if (obs::write_chrome_trace("quickstart_trace.json"))
    std::printf("trace:   quickstart_trace.json (%zu spans; load in chrome://tracing)\n",
                obs::TraceRecorder::global().size());
  std::printf("report:  %s (RunReport; diff two with tools/report_diff.py)\n",
              opt.report_path.c_str());
  return res.scf.converged ? 0 : 1;
}
