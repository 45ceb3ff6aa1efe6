// Microbenchmarks (google-benchmark) of the hot kernels: dense GEMM,
// strided-batched cell GEMM, the full cell-level Hamiltonian apply
// (gather + batched GEMM + assembly), the one-column Poisson stiffness
// apply, mixed-precision GEMM, and the FP64/FP32/BF16 halo-packet round
// trip. These are the building blocks whose throughputs the table/figure
// benches aggregate.
//
// Unlike the plain BENCHMARK_MAIN() harness, this binary runs with a
// reporter that mirrors every finished benchmark into the metrics registry
// (wall time per iteration, user counters such as GFLOPS/GB/s, workspace
// allocation counts) and writes RUNREPORT_kernels.json on exit, so kernel
// throughput is trackable across commits like the table benches. Every
// GFLOPS counter has a hw_peak_pct beside it: its share of this core's FMA
// peak (bench::hw_peak_gflops).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dd/mailbox.hpp"
#include "fe/cell_ops.hpp"
#include "ks/hamiltonian.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"
#include "obs/metrics.hpp"

using namespace dftfe;

/// GFLOPS and its share of this core's FMA peak (hw_peak_pct; the FP32 peak
/// for FP32 work), as rate counters over `flops_per_iter` per iteration.
static void set_flop_counters(benchmark::State& state, double flops_per_iter,
                              bool fp32 = false) {
  const double gflop = flops_per_iter * static_cast<double>(state.iterations()) / 1e9;
  state.counters["GFLOPS"] = benchmark::Counter(gflop, benchmark::Counter::kIsRate);
  state.counters["hw_peak_pct"] = benchmark::Counter(
      100.0 * gflop / bench::hw_peak_gflops(fp32), benchmark::Counter::kIsRate);
}

/// Products per iteration for an n x n x n GEMM: (512 / n)^3, so every
/// size does the FLOPs of one 512^3 product per iteration (about 9 ms in
/// FP64 and 3 ms in FP32 on one AVX-512 core) and clears
/// check_bench_regression.py's 1 ms noise floor.
static int products_per_iteration(index_t n) {
  const index_t r = std::max<index_t>(1, 512 / n);
  return static_cast<int>(r * r * r);
}

static void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  const int reps = products_per_iteration(n);
  la::MatrixD A(n, n), B(n, n), C(n, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = 0.5 + 1e-6 * i;
  for (auto _ : state)
    for (int r = 0; r < reps; ++r) la::gemm('N', 'N', 1.0, A, B, 0.0, C);
  set_flop_counters(state, reps * 2.0 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

static void BM_GemmComplex(benchmark::State& state) {
  const index_t n = state.range(0);
  la::MatrixZ A(n, n), B(n, n), C(n, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = complex_t(0.5, 0.1);
  for (auto _ : state) la::gemm('C', 'N', complex_t(1), A, B, complex_t(0), C);
  set_flop_counters(state, 8.0 * n * n * n);
}
BENCHMARK(BM_GemmComplex)->Arg(128)->Arg(256);

static void BM_BatchedCellGemm(benchmark::State& state) {
  // (p+1)^3 x (p+1)^3 cell matrix applied to B-column blocks over a batch of
  // cells — the paper's xGEMMStridedBatched workload.
  const int p = static_cast<int>(state.range(0));
  const index_t nd = (p + 1) * (p + 1) * (p + 1), B = 64, batch = 32;
  la::MatrixD A(nd, nd);
  std::vector<double> X(nd * B * batch, 0.3), Y(nd * B * batch);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = 1e-4 * (i % 97);
  for (auto _ : state)
    la::gemm_strided_batched<double>('N', 'N', nd, B, nd, 1.0, A.data(), nd, 0, X.data(), nd,
                                     nd * B, 0.0, Y.data(), nd, nd * B, batch);
  set_flop_counters(state, 2.0 * nd * nd * B * batch);
}
BENCHMARK(BM_BatchedCellGemm)->Arg(4)->Arg(6)->Arg(8);

static void BM_HamiltonianApply(benchmark::State& state) {
  const index_t bf = state.range(0);
  static fe::Mesh mesh = fe::make_uniform_mesh(10.0, 3, true);
  static fe::DofHandler dofh(mesh, 5);
  static ks::Hamiltonian<double> H = [] {
    ks::Hamiltonian<double> h(dofh);
    h.set_potential(std::vector<double>(dofh.ndofs(), -0.4));
    return h;
  }();
  la::MatrixD X(dofh.ndofs(), bf), Y;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.01 * i);
  H.apply(X, Y);  // warm up persistent workspace buffers
  la::WorkspaceCounters::reset();
  for (auto _ : state) H.apply(X, Y);
  // Steady-state applies must be allocation-free: this counter is expected
  // to stay 0 (also asserted by tests/test_workspace.cpp).
  state.counters["ws_allocs"] =
      benchmark::Counter(static_cast<double>(la::WorkspaceCounters::allocations()));
  set_flop_counters(state, H.kinetic().flops_per_apply(bf));
}
BENCHMARK(BM_HamiltonianApply)->Arg(16)->Arg(64)->Arg(128);

static void BM_StiffnessApply(benchmark::State& state) {
  // The bare p = 4 stiffness (the Poisson operator) on the dimer workload's
  // isolated 7 x 5 x 5-cell mesh (12,789 DoFs). One column is the apply of
  // every EP conjugate-gradient iteration, 11 a dimer Chebyshev-filter
  // block. An iteration runs 32 applies (about 1.6 ms on one column on one
  // AVX-512 core), so both entries clear check_bench_regression.py's 1 ms
  // noise floor and the CI gate compares them.
  constexpr int kApplies = 32;
  const index_t bf = state.range(0);
  static fe::Mesh mesh(fe::make_uniform_axis(19.8, 7), fe::make_uniform_axis(14.0, 5),
                       fe::make_uniform_axis(14.0, 5));
  static fe::DofHandler dofh(mesh, 4);
  static fe::CellStiffness<double> K(dofh, 1.0);
  la::MatrixD X(dofh.ndofs(), bf), Y(dofh.ndofs(), bf);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.01 * i);
  K.apply_add(X, Y);  // warm up the gather/scatter chunks
  la::WorkspaceCounters::reset();
  for (auto _ : state) {
    for (int r = 0; r < kApplies; ++r) K.apply_add(X, Y);
    benchmark::DoNotOptimize(Y.data());
    benchmark::ClobberMemory();
  }
  state.counters["ws_allocs"] =
      benchmark::Counter(static_cast<double>(la::WorkspaceCounters::allocations()));
  set_flop_counters(state, kApplies * K.flops_per_apply(bf));
}
BENCHMARK(BM_StiffnessApply)->Arg(1)->Arg(11);

static void BM_MixedPrecisionGemm(benchmark::State& state) {
  const index_t n = state.range(0);
  const int reps = products_per_iteration(n);
  la::MatrixD A(n, n), B(n, n), C(n, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = 0.5;
  for (auto _ : state)
    for (int r = 0; r < reps; ++r)
      la::gemm_low_precision<double>('N', 'N', n, n, n, A.data(), n, B.data(), n, C.data(), n);
  set_flop_counters(state, reps * 2.0 * n * n * n, /*fp32=*/true);
}
BENCHMARK(BM_MixedPrecisionGemm)->Arg(256);

static void BM_WirePack(benchmark::State& state) {
  // One halo packet round trip through the rank engine's mailbox, single
  // threaded: claim a slot, pack a 64-column z-plane through the wire codec,
  // publish, receive, unpack, release — the per-packet data path of
  // RankEngine's post/receive without the neighbor bookkeeping. Argument:
  // bits per value on the wire (64 = FP64, 32 = FP32, 16 = BF16).
  const dd::Wire wire = state.range(0) == 32   ? dd::Wire::fp32
                        : state.range(0) == 16 ? dd::Wire::bf16
                                               : dd::Wire::fp64;
  static fe::Mesh mesh = fe::make_uniform_mesh(10.0, 4, true);
  static fe::DofHandler dofh(mesh, 4);
  const index_t n = dofh.naxis(0) * dofh.naxis(1) * 64;
  std::vector<double> src(static_cast<std::size_t>(n)), dst(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = std::sin(0.01 * static_cast<double>(i));
  dd::HaloChannel<double> ch;
  ch.init(wire, n);
  for (auto _ : state) {
    dd::with_codec<double>(wire, [&](auto codec) {
      using Codec = decltype(codec);
      const int s = ch.begin_post();
      typename Codec::unit* w = ch.buf<Codec::wire>(s);
      for (index_t i = 0; i < n; ++i) Codec::store(src[i], w + i * Codec::units);
      ch.finish_post(s, dd::HaloChannel<double>::Clock::now());
      const int r = ch.wait_packet();
      const typename Codec::unit* c = ch.cbuf<Codec::wire>(r);
      for (index_t i = 0; i < n; ++i) dst[i] = Codec::load(c + i * Codec::units);
      ch.release(r);
    });
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(dd::halo_packet_bytes<double>(n, wire)) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WirePack)->Arg(64)->Arg(32)->Arg(16);

namespace {

/// Console reporter that additionally mirrors every finished run into the
/// metrics registry: `bench.kernels.<name>.wall_s` (per-iteration wall time)
/// plus one gauge per user counter (GFLOPS, GB/s, ws_allocs). Counter values
/// arrive already finalized (rates divided by elapsed time).
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    auto& m = obs::MetricsRegistry::global();
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      std::string key = "bench.kernels." + run.benchmark_name();
      for (char& c : key)
        if (c == '/' || c == ':' || c == ' ') c = '.';
      const double iters = std::max<double>(1.0, static_cast<double>(run.iterations));
      m.gauge_set(key + ".wall_s", run.real_accumulated_time / iters);
      for (const auto& kv : run.counters) m.gauge_set(key + "." + kv.first, kv.second);
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Probe this core's peaks before any timed loop, not inside the first one.
  std::printf("hardware peak (%s FMA probe): FP64 %.1f GFLOPS, FP32 %.1f GFLOPS\n",
              la::kernel::active().name, bench::hw_peak_gflops(), bench::hw_peak_gflops(true));
  MetricsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  bench::emit_bench_artifact("kernels");
  return 0;
}
