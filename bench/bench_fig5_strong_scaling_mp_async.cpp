// Figure 5 reproduction: strong scaling of one SCF iteration, baseline
// (FP64 wire, synchronous exchanges) vs mixed-precision + asynchronous
// compute/communication overlap (paper Secs. 5.4.2-5.4.3, Fig. 5).
//
// Paper (Summit, YbCd quasicrystal, 240 -> 1,920 nodes): the combined
// optimizations give 1.8x lower minimum wall time and lift parallel
// efficiency at 1,920 nodes from 36% to 54%.
//
// Modeled extrapolation: the per-iteration compute is *measured* on the real
// ChFES kernels and divided across ranks (the paper's partitioning delivers
// near-equal DoFs/rank); communication is priced with the engine's own
// halo_packet_bytes formula (plane interfaces for CF, allreduce volumes for
// CholGS/RR) and an explicit interconnect model, with the async schedule
// played through the pipeline simulator. The reproduction target is the
// shape: efficiency decays with rank count, and FP32 wire + overlap roughly
// halves the penalty at scale. A second table sweeps the filter block size
// through the same simulator. The measured counterpart on real lanes is
// bench_scf_scaling.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dd/exchange.hpp"
#include "dd/pipeline.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"

using namespace dftfe;

int main() {
  bench::print_preamble(
      "Fig. 5 analog: strong scaling, baseline vs mixed-precision + async\n"
      "(workload: quasicrystal-analog ChFES iteration; comm = modeled NIC)");

  // Measured single-core workload.
  const fe::Mesh mesh = fe::make_uniform_mesh(14.0, 4, true);
  const int degree = 5;
  fe::DofHandler dofh(mesh, degree);
  ks::Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -0.5 / (1.0 + (g % 13));
  H.set_potential(v);
  const index_t N = 192, Bf = 64;
  const int cheb_degree = 10;
  ks::ChfesOptions copt;
  copt.block_size = Bf;
  copt.cheb_degree = cheb_degree;
  ks::ChebyshevFilteredSolver<double> solver(H, N, copt);
  solver.initialize_random(5);
  ProfileRegistry::global().clear();
  solver.cycle();
  double compute_total = 0.0;
  for (const char* s : {"CF", "CholGS-S", "CholGS-CI", "CholGS-O", "RR-P", "RR-D", "RR-SR"})
    compute_total += ProfileRegistry::global().seconds(s);
  std::printf("measured one-iteration compute on 1 core: %.3f s (dofs %lld, N %lld)\n\n",
              compute_total, static_cast<long long>(dofh.ndofs()), static_cast<long long>(N));

  dd::CommModel net;
  // Communication model, *balance-matched* to the target machine: our
  // emulated "node" computes at the measured single-core rate, a Summit node
  // at ~46.8 TFLOPS peak x ~30% application efficiency. The interconnect is
  // therefore time-dilated by the same factor, so the communication-to-
  // computation balance (bytes/FLOP) matches the real system and the
  // efficiency curves are in the physically right regime.
  FlopCounter::global().clear();
  {  // quick rate probe on the same kernels
    ks::ChebyshevFilteredSolver<double> probe(H, N, copt);
    probe.initialize_random(6);
    Timer tp;
    probe.cycle();
    const double rate = FlopCounter::global().total() / tp.seconds();
    const double node_rate = 46.8e12 * 0.30;
    const double dilation = node_rate / rate;
    std::printf("measured kernel rate %.2f GFLOPS; Summit-node effective rate assumed\n"
                "%.1f TFLOPS -> interconnect time-dilation factor %.0f\n\n",
                rate / 1e9, node_rate / 1e12, dilation);
    net.bandwidth_bytes_per_s = 23e9 / dilation;  // Summit EDR NIC / dilation
    net.latency_s = 1.5e-6 * dilation;
  }
  const index_t plane = dofh.naxis(0) * dofh.naxis(1);
  const index_t n_applies = cheb_degree;                 // per block
  const index_t n_blocks = (N + Bf - 1) / Bf;
  auto cf_comm_per_block = [&](bool fp32) {
    // 2 faces x (send + recv) of one plane packet per apply.
    const std::int64_t bytes =
        2 * 2 * dd::halo_packet_bytes<double>(plane * Bf, fp32 ? dd::Wire::fp32 : dd::Wire::fp64);
    return net.time(bytes, 4) * n_applies;
  };
  auto reduce_comm = [&](bool mixed, int ranks) {
    // CholGS-S + RR-P allreduces of the N x N matrices; with mixed precision
    // the off-diagonal blocks travel in FP32.
    const double frac64 = mixed ? 0.25 : 1.0;
    const index_t bytes =
        static_cast<index_t>(N * N * (frac64 * 8.0 + (1.0 - frac64) * (mixed ? 4.0 : 8.0)));
    return 2.0 * net.allreduce_time(bytes, ranks);
  };

  TextTable t({"nodes", "baseline (s)", "mp+async (s)", "speedup", "eff base", "eff mp+async"});
  const int r0 = 240;
  double base0 = 0.0, opt0 = 0.0;
  for (int ranks : {240, 480, 960, 1920}) {
    const double comp = compute_total / ranks * r0;  // strong scaling from r0 baseline size
    const double comp_block = comp / n_blocks;
    std::vector<dd::BlockTiming> base_blocks(n_blocks), opt_blocks(n_blocks);
    for (index_t b = 0; b < n_blocks; ++b) {
      base_blocks[b] = {comp_block, cf_comm_per_block(false)};
      opt_blocks[b] = {comp_block, cf_comm_per_block(true)};
    }
    const double t_base = dd::simulate_sync(base_blocks) + reduce_comm(false, ranks);
    const double t_opt = dd::simulate_overlap(opt_blocks) + reduce_comm(true, ranks);
    if (ranks == r0) {
      base0 = t_base;
      opt0 = t_opt;
    }
    t.add(ranks, TextTable::num(t_base, 4), TextTable::num(t_opt, 4),
          TextTable::num(t_base / t_opt, 2),
          TextTable::num(100.0 * base0 * r0 / (t_base * ranks), 1) + "%",
          TextTable::num(100.0 * opt0 * r0 / (t_opt * ranks), 1) + "%");
  }
  t.print();
  std::printf("paper Fig. 5: 1.8x faster minimum wall time; efficiency at 1,920 nodes\n"
              "36%% (baseline) -> 54%% (mixed precision + async). Shape target: the\n"
              "mp+async column stays faster and decays slower with rank count.\n\n");

  // Pipeline-simulator sweep over filter block sizes: measured per-block
  // compute of one ChFES cycle at each B_f, modeled FP32 plane exchanges on
  // a congested network.
  {
    const fe::Mesh smesh = fe::make_uniform_mesh(12.0, 3, true);
    fe::DofHandler sdofh(smesh, 5);
    ks::Hamiltonian<double> sH(sdofh);
    sH.set_potential(std::vector<double>(sdofh.ndofs(), -0.3));
    const index_t splane = sdofh.naxis(0) * sdofh.naxis(1);
    dd::CommModel snet;
    snet.bandwidth_bytes_per_s = 5e9;  // congested-network regime: comm visible

    TextTable st({"B_f", "blocks", "sync (s)", "overlap (s)", "hidden comm"});
    for (index_t bf : {16, 32, 64, 96, 192}) {
      ks::ChfesOptions sopt;
      sopt.block_size = bf;
      sopt.cheb_degree = 8;
      ks::ChebyshevFilteredSolver<double> s(sH, N, sopt);
      s.initialize_random(9);
      s.cycle();
      // Per-block exchange time: 2 interface faces x (send + recv) of one
      // FP32 plane packet per apply, `cheb_degree` applies.
      const std::int64_t wire = 2 * 2 * dd::halo_packet_bytes<double>(splane * bf, dd::Wire::fp32);
      std::vector<dd::BlockTiming> blocks;
      for (const double block_s : s.cf_block_timings())
        blocks.push_back({block_s, sopt.cheb_degree * snet.time(wire, 4)});
      const double sim_sync = dd::simulate_sync(blocks);
      const double sim_overlap = dd::simulate_overlap(blocks);
      double comm_total = 0.0;
      for (auto& blk : blocks) comm_total += blk.comm;
      st.add(bf, blocks.size(), TextTable::num(sim_sync, 4), TextTable::num(sim_overlap, 4),
             TextTable::num(100.0 * (sim_sync - sim_overlap) / std::max(comm_total, 1e-12), 1) +
                 "%");
    }
    st.print();
    std::printf("with several blocks in flight, nearly all exchange time hides behind\n"
                "the next block's compute (only the last block's exchange is exposed);\n"
                "with a single block (B_f = N) there is nothing to overlap — exactly\n"
                "why the paper pipelines the filter over wavefunction blocks.\n");
  }
  return 0;
}
