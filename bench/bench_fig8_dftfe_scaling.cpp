// Figure 8 reproduction: strong scaling of DFT-FE-MLXC on the quasicrystal
// nanoparticle workload, and the MLXC-vs-PBE cost comparison.
//
// Paper: ~80% strong-scaling efficiency at 240 Frontier nodes (39.1K
// DoF/GCD) and 560 Perlmutter nodes; ~60% at 1,120 Perlmutter nodes (16.8K
// DoF/GPU, 5x speedup over 140 nodes); and "the Level 4+ MLXC functional
// incurs only a small overhead over Level 2 PBE".
//
// Here (a) the MLXC/PBE comparison is a *real measurement*: one full SCF
// iteration of the same system with each functional on one core; (b) the
// scaling curve is emulated from the measured compute + modeled
// communication, reported against DoFs/rank exactly like the paper.

#include <cstdio>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "dd/exchange.hpp"

using namespace dftfe;

namespace {

double measure_scf_iteration(const std::string& functional) {
  atoms::Structure st;
  // Small quasicrystal-analog cluster (Mg-valence stand-ins).
  st.atoms = {{atoms::Species::X, {0, 0, 0}},   {atoms::Species::X, {4.6, 0, 0}},
              {atoms::Species::X, {0, 4.6, 0}}, {atoms::Species::X, {0, 0, 4.6}},
              {atoms::Species::X, {4.6, 4.6, 0}}};
  st.periodic = {false, false, false};
  core::SimulationOptions opt;
  opt.functional = functional;
  opt.fe_degree = 4;
  opt.mesh_size = 2.6;
  opt.vacuum = 6.0;
  opt.scf.max_iterations = 6;
  opt.scf.density_tol = 1e-12;  // force a fixed iteration count
  opt.scf.first_iteration_cycles = 2;
  core::Simulation sim(std::move(st), opt);
  Timer t;
  sim.run();
  return t.seconds() / 6.0;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Fig. 8 analog: DFT-FE-MLXC strong scaling + MLXC-vs-PBE overhead");

  std::printf("-- MLXC vs PBE wall time per SCF iteration (real measurement) --\n");
  core::make_functional("MLXC");  // train + cache the surrogate net up front
  const double t_lda = measure_scf_iteration("LDA");
  const double t_pbe = measure_scf_iteration("PBE");
  const double t_ml = measure_scf_iteration("MLXC");
  TextTable f({"functional", "level", "s / SCF iteration", "vs PBE"});
  f.add("LDA", "1", TextTable::num(t_lda, 3), TextTable::num(t_lda / t_pbe, 2) + "x");
  f.add("PBE", "2", TextTable::num(t_pbe, 3), "1.00x");
  f.add("MLXC", "4+", TextTable::num(t_ml, 3), TextTable::num(t_ml / t_pbe, 2) + "x");
  f.print();
  std::printf("paper: \"the Level 4+ MLXC functional incurs only a small overhead over\n"
              "Level 2 PBE, with similar wall-times\" — target: MLXC/PBE ratio near 1.\n\n");

  std::printf("-- emulated strong scaling (measured compute / modeled interconnect) --\n");
  // Use the MLXC iteration as the workload; scale a notional 75M-DoF system
  // (the paper's YbCd case) across ranks by DoFs/rank.
  const double dof_total = 75.0e6;
  const double s_per_dof = t_ml / 9261.0;  // measured seconds per dof per iteration
  // Balance-matched interconnect (see bench_fig5): dilate the NIC by the
  // ratio of a Frontier-GCD effective rate to this core's measured rate.
  dd::CommModel net;
  {
    const double our_rate = 12e9;              // measured kernel ballpark (GFLOPS)
    const double gcd_rate = 23.9e12 * 0.43;    // per-GCD peak x paper's efficiency
    const double dilation = gcd_rate / our_rate;
    net.bandwidth_bytes_per_s = 25e9 / dilation;
    net.latency_s = 2e-6 * dilation;
  }
  TextTable t({"ranks (GCDs)", "kDoF/rank", "wall/SCF (s)", "efficiency"});
  double t0 = 0.0;
  int r0 = 0;
  for (int ranks : {480, 960, 1920, 3840, 7680}) {
    const double dofs_rank = dof_total / ranks;
    const double comp = dofs_rank * s_per_dof;
    // Boundary exchange bytes scale with the slab cross-section ~ dofs^{2/3}
    // (a fractional face in this continuum model): two 64-column FP32 plane
    // packets per exchange. Reductions scale with the wavefunction count
    // (fixed).
    const double plane = std::pow(dofs_rank, 2.0 / 3.0);
    const double value_bytes =
        static_cast<double>(dd::halo_packet_bytes<double>(1, dd::Wire::fp32));
    const double comm =
        200.0 * net.time(static_cast<index_t>(plane * 64 * value_bytes * 2), 4) +
        2.0 * net.allreduce_time(512 * 512 * 8, ranks);
    const double wall = comp + comm;
    if (r0 == 0) {
      r0 = ranks;
      t0 = wall;
    }
    t.add(ranks, TextTable::num(dofs_rank / 1e3, 1), TextTable::num(wall, 2),
          TextTable::num(100.0 * t0 * r0 / (wall * ranks), 1) + "%");
  }
  t.print();
  std::printf("paper Fig. 8: ~80%% efficiency at 39.1 kDoF/GCD, ~60%% at 16.8 kDoF/GPU\n"
              "(5x speedup 140 -> 1,120 Perlmutter nodes). Shape target: efficiency\n"
              "decays as DoFs/rank shrink below a few tens of thousands.\n");
  return 0;
}
