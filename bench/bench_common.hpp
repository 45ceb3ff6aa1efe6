#pragma once

// Shared bench-harness utilities.
//
// "% of peak" methodology: the paper divides measured FLOP counts by the
// hardware's theoretical FP64 peak (Sec. 6.3). The harness reports against
// two peaks. The hardware peak is this core's FMA throughput, measured by an
// in-process probe on the ISA the GEMM kernel dispatched to (the paper's
// normalization). The calibrated peak is the best sustained GEMM throughput
// of this library's own kernels on large matrices ("fraction of the best
// this machine + these kernels can do"); tools/check_bench_regression.py
// normalizes wall times by it across hosts.
//
// Scaling has one real data path and one modeled extrapolation (DESIGN.md,
// "Hardware gates and substitutions"). Measured benches run the threaded
// rank engine's brick lanes on the running host's cores; where they need a
// slow interconnect to exist at all, the engine sleeps out a modeled wire
// time per halo packet — interconnect emulation, calibrated below against
// the host's own per-step compute so the wire-bound regime travels with the
// hardware. Modeled benches (fig5, fig8) extrapolate measured compute to
// rank counts beyond one host, pricing communication with the same
// halo_packet_bytes formula and CommModel the engine uses.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/flops.hpp"
#include "base/table.hpp"
#include "base/timer.hpp"
#include "dd/engine.hpp"
#include "ks/hamiltonian.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/gemm_kernel.hpp"
#include "la/iterative.hpp"
#include "la/workspace_metrics.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"

namespace dftfe::bench {

/// Best sustained GEMM GFLOPS on this machine (cached across calls): the
/// maximum over the blocked large-GEMM and the strided-batched cell-GEMM
/// kernels, so no kernel can exceed "100% of peak".
inline double calibrated_peak_gflops() {
  static double peak = [] {
    double best = 0.0;
    {
      const index_t n = 512;
      la::MatrixD A(n, n), B(n, n), C(n, n);
      for (index_t i = 0; i < A.size(); ++i) {
        A.data()[i] = 0.3 + 1e-6 * i;
        B.data()[i] = 0.7 - 1e-6 * i;
      }
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        la::gemm('N', 'N', 1.0, A, B, 0.0, C);
        best = std::max(best, 2.0 * n * n * n / t.seconds() / 1e9);
      }
    }
    {
      const index_t nd = 125, B = 64, batch = 24;
      la::MatrixD A(nd, nd);
      std::vector<double> X(nd * B * batch, 0.4), Y(nd * B * batch);
      for (index_t i = 0; i < A.size(); ++i) A.data()[i] = 1e-4 * (i % 89);
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        la::gemm_strided_batched<double>('N', 'N', nd, B, nd, 1.0, A.data(), nd, 0, X.data(),
                                         nd, nd * B, 0.0, Y.data(), nd, nd * B, batch);
        best = std::max(best, 2.0 * nd * nd * B * batch / t.seconds() / 1e9);
      }
    }
    return best;
  }();
  return peak;
}

/// This core's FMA-throughput peak in GFLOP/s, FP64 (or FP32 with `fp32`),
/// on the vector ISA the GEMM kernel dispatched to: the best of five probe
/// runs of independent FMA chains, each a few tens of milliseconds. Measured
/// on first use, so only benches pay for it.
inline double hw_peak_gflops(bool fp32 = false) {
  auto probe = [](bool single) {
    const la::kernel::Table& kt = la::kernel::active();
    constexpr std::int64_t kIters = std::int64_t{1} << 21;
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      double sink_d = 0.0;
      float sink_s = 0.0f;
      Timer t;
      const double flops = single ? kt.fma_probe_s(kIters, &sink_s)
                                  : kt.fma_probe_d(kIters, &sink_d);
      best = std::max(best, flops / t.seconds() / 1e9);
    }
    return best;
  };
  if (fp32) {
    static const double peak32 = probe(true);
    return peak32;
  }
  static const double peak64 = probe(false);
  return peak64;
}

/// The filter benches' operator: the Hamiltonian over a constant -0.3 Ha
/// potential, filtered on [a, b] with lower spectrum edge a0 (b from 14
/// Lanczos steps, a0 = -1.3, a 15% of the way up).
constexpr double kFilterPotential = -0.3;
struct FilterBounds {
  double a = 0.0, b = 0.0, a0 = 0.0;
};

inline FilterBounds filter_bounds(const fe::DofHandler& dofh) {
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), kFilterPotential));
  la::Matrix<double> v(H.n(), 1), vprev(H.n(), 1), w(H.n(), 1);
  const double b = la::lanczos_upper_bound<double>(
      [&H](const la::Matrix<double>& X, la::Matrix<double>& Y) { H.apply(X, Y); }, v, vprev, w,
      14);
  const double a0 = -1.3;
  return {a0 + 0.15 * (b - a0), b, a0};
}

/// Calibration probe of the injected-wire benches: the mean per-recurrence-
/// step compute of one free-wire Chebyshev filter block of `ncols` columns
/// at degree `cheb_degree` on the real rank engine (`popt` fixes lanes, grid
/// and schedule). With reps > 1 the steps of the fastest rep count (the
/// minimum filters scheduler jitter).
inline double probe_step_compute(const fe::DofHandler& dofh, const dd::BackendOptions& popt,
                                 index_t ncols, int cheb_degree, int reps = 1) {
  const FilterBounds fb = filter_bounds(dofh);
  dd::RankEngine<double> probe(dofh, popt);
  probe.set_potential(std::vector<double>(dofh.ndofs(), kFilterPotential));
  la::Matrix<double> X(dofh.ndofs(), ncols);
  double best_wall = 0.0, step_compute = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.17 * i);
    Timer t;
    probe.filter_block(X, 0, X.cols(), cheb_degree, fb.a, fb.b, fb.a0);
    const double wall = t.seconds();
    if (rep > 0 && wall >= best_wall) continue;
    best_wall = wall;
    const auto& stats = probe.last_step_stats();
    step_compute = 0.0;
    for (const auto& st : stats) step_compute += st.compute;
    step_compute /= static_cast<double>(stats.size());
  }
  return step_compute;
}

/// An injected wire (interconnect emulation): the engine sleeps `delay`
/// seconds per calibration packet of `packet_bytes` — the probe's step
/// compute times the bench's delay factor, floored at `min_delay` — and
/// proportionally longer or shorter for other packet sizes.
struct InjectedWire {
  double delay = 0.0;
  dd::CommModel model;
};

inline InjectedWire calibrated_wire(double step_compute, double factor,
                                    std::int64_t packet_bytes, double min_delay = 0.0) {
  InjectedWire w;
  w.delay = std::max(factor * step_compute, min_delay);
  w.model.latency_s = 2e-6;
  w.model.bandwidth_bytes_per_s =
      static_cast<double>(packet_bytes) / std::max(w.delay - w.model.latency_s, 1e-6);
  return w;
}

inline void print_preamble(const char* what) {
  std::printf("================================================================\n");
  std::printf("%s\n", what);
  std::printf("calibrated machine peak: %.2f GFLOPS (best large-GEMM throughput;\n"
              "see bench_common.hpp for the normalization methodology)\n",
              calibrated_peak_gflops());
  std::printf("hardware FP64 peak: %.2f GFLOPS (%s FMA probe, one core)\n", hw_peak_gflops(),
              la::kernel::active().name);
  std::printf("================================================================\n");
}

inline std::string pct_of_peak(double gflops) {
  return TextTable::num(100.0 * gflops / calibrated_peak_gflops(), 1) + "%";
}

/// The standard bench epilogue, shared by every artifact-producing bench:
/// publish the headline gauges as `<prefix>.<key>` (the names
/// tools/check_bench_regression.py compares against bench/baselines/), write
/// the RunReport `RUNREPORT_<name>.json` — the bench's one artifact — then
/// clear the global profile/FLOP registries so state never leaks into a
/// subsequent bench run in the same process (ctest smoke runs, scripts that
/// chain benches).
///
/// Every artifact carries the host's calibrated GEMM peak, thread count,
/// dispatched SIMD width and FP64 hardware peak as `machine.*` gauges: the
/// checker uses the calibrated peak to normalize wall times when the
/// committed baseline was recorded on a different machine than the CI
/// runner comparing against it, and refuses pairs whose thread counts differ.
inline void emit_bench_artifact(const std::string& name, const std::string& prefix = "",
                                const std::vector<std::pair<std::string, double>>& gauges = {}) {
  auto& m = obs::MetricsRegistry::global();
  for (const auto& [key, value] : gauges)
    m.gauge_set(prefix.empty() ? key : prefix + "." + key, value);
  m.gauge_set("machine.peak_gflops", calibrated_peak_gflops());
  m.gauge_set("machine.hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  m.gauge_set("machine.simd_bits", static_cast<double>(la::kernel::active().isa));
  m.gauge_set("machine.hw_peak_fp64_gflops", hw_peak_gflops());
  la::publish_workspace_metrics();
  const std::string path = "RUNREPORT_" + name + ".json";
  if (obs::write_run_report(path, obs::build_run_report(name)))
    std::printf("bench artifact: %s\n", path.c_str());
  else
    std::printf("bench artifact: FAILED to write %s\n", path.c_str());
  ProfileRegistry::global().clear();
  FlopCounter::global().clear();
}

}  // namespace dftfe::bench
