// Table 3 reproduction: per-step wall time, FLOP count, and sustained
// throughput (% of peak) for a single SCF iteration, broken down into the
// paper's kernel names: CF, CholGS-S, CholGS-CI, CholGS-O, RR-P, RR-D,
// RR-SR, DC, and DH+EP+Others. Like the paper (Sec. 6.3), FLOPs for
// CholGS-CI and RR-D (minor O(N^3) contributions) are not charged to the
// totals, though their wall times are; the complex k-point datatype carries
// the factor-4 FLOP accounting.
//
// Workload: a k-point sampled (complex Hamiltonian) periodic cell — the
// TwinDislocMgY-style configuration at a single-core-feasible size.

#include <cstdio>

#include "bench_common.hpp"
#include "ks/scf.hpp"
#include "xc/lda.hpp"

using namespace dftfe;

int main() {
  bench::print_preamble(
      "Table 3 analog: per-step wall time / FLOPs / %-of-peak for one SCF\n"
      "iteration (complex k-point Hamiltonian, factor-4 FLOP accounting)");

  const double L = 12.0;
  const fe::Mesh mesh = fe::make_uniform_mesh(L, 3, true);
  fe::DofHandler dofh(mesh, 4);
  ks::ScfOptions opt;
  opt.nstates = 96;
  opt.temperature = 0.01;
  opt.max_iterations = 2;  // iteration 2 is the steady-state one we report
  opt.density_tol = 1e-14;
  opt.first_iteration_cycles = 1;
  opt.block_size = 48;
  std::vector<ks::KPointSample> kpts{{{0.0, 0.0, kPi / L}, 1.0}};
  ks::KohnShamDFT<complex_t> dft(dofh, std::make_shared<xc::LdaPW92>(), kpts, opt);
  // A metallic-ish periodic cluster.
  std::vector<ks::GaussianCharge> nuclei;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      nuclei.push_back({{1.5 + 3.0 * i, 1.5 + 3.0 * j, L / 2}, 2.0, 1.2});
  dft.set_nuclei(nuclei, 32.0);

  // Warm up (iteration 1 includes subspace initialization), then measure.
  dft.solve();
  ProfileRegistry::global().clear();
  FlopCounter::global().clear();
  obs::MetricsRegistry::global().clear();
  obs::TraceRecorder::global().clear();
  Timer t_iter;
  // One more converged-regime iteration: potential update + ChFES + density.
  dft.update_effective_potential();
  opt.max_iterations = 1;
  // Re-drive through the public API: a fresh solve reuses nothing, so time
  // the pieces directly via the registry after a 1-iteration solve.
  ks::KohnShamDFT<complex_t> dft2(dofh, std::make_shared<xc::LdaPW92>(), kpts, opt);
  dft2.set_nuclei(nuclei, 32.0);
  dft2.solve();
  const double total_wall = t_iter.seconds();

  // The obs exporter renders the paper's Table 3 layout straight from the
  // global registries (canonical step list, minor-step FLOP exclusion).
  obs::step_breakdown_table(total_wall,
                            {{"% of calibrated peak", bench::calibrated_peak_gflops()},
                             {"% of hardware peak", bench::hw_peak_gflops()}})
      .print();
  std::printf("dofs %lld x %lld states (complex). Paper Table 3 shape: CF carries the\n"
              "largest wall share at moderate efficiency; the O(MN^2) dense steps\n"
              "(CholGS-S/O, RR-P/SR) run at the highest %%-of-peak; CholGS-CI and RR-D\n"
              "are minor; DH+EP+Others is a small tail.\n",
              static_cast<long long>(dofh.ndofs()), static_cast<long long>(opt.nstates));
  // Machine-readable artifact: the same numbers, trackable across commits.
  bench::emit_bench_artifact("table3", "bench",
                             {{"total_wall_seconds", total_wall},
                              {"calibrated_peak_gflops", bench::calibrated_peak_gflops()}});
  obs::MetricsRegistry::global().clear();
  return 0;
}
