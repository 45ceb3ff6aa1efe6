// Measured scaling of the threaded rank engine (paper Secs. 5.4.2-5.4.3,
// Fig. 5): one harness, one wire calibration, five sections. Every run here
// executes for real on brick lanes (dd::RankEngine over dd::BrickPartition,
// one std::thread per lane, halos through the double-buffered mailboxes);
// the modeled extrapolation to Summit-scale rank counts is
// bench_fig5_strong_scaling_mp_async.
//
// Interconnect emulation. Sections and rows marked [emulated wire] inject a
// modeled halo wire: the sender stamps each packet with its CommModel time
// and the receiving lane sleeps out whatever of it is still ahead, so the
// sync/async schedules and the wire formats show up as wall time on one
// host. The delay is a fixed multiple of the host's own free-wire per-step
// filter compute (bench_common.hpp: probe_step_compute + calibrated_wire),
// so the wire-bound regime travels with the hardware. Emulated rows are
// never the only evidence for a real-core claim; free-wire rows are plain
// real-core measurements.
//
// Sections (gauge prefix, CI floors of the bench-regression job):
//   1. ablation_async  [emulated wire] blocked Chebyshev filter, 4 z-slab
//      lanes, synchronous halo waits vs the overlapped schedule; delay 0.5x
//      step compute per FP64 packet. Floor: speedup >= 1.15.
//   2. scf_strong      whole SCF, serial vs 1/2/4 z-slab lanes on a free
//      wire, then [emulated wire] sync vs async at 4 lanes; delay 0.8x per
//      FP32 packet. Floors: speedup >= 1.5, energy_agree.
//   3. scf_mixed       whole SCF per wire format (fp64 everything; fp32 or
//      bf16 halo wire + FP32 off-diagonal subspace blocks): free wire at 1
//      and 4 lanes, [emulated wire] sync at 4 lanes with delay 0.8x per FP64
//      packet, then the converged accuracy gate. Floors: speedup >= 1.10,
//      energy_agree, converged.
//   4. scf_brick       z-slab {1,1,8} vs brick {2,2,2} at 8 lanes on a cube:
//      exact halo bytes per apply, then [emulated wire] whole SCF with delay
//      4x per FP32 slab packet. Floors: speedup8 >= 1.5,
//      halo_bytes_improved, energy_agree.
//   5. fig5.measured   Chebyshev filter block at 1/2/4 lanes, free wire
//      (skipped under --quick).
//
// Sections 2 and 3 share one workload (8 x 8 x 96 cells) and run one
// {1,1,4} calibration probe between them. All gauges land in
// RUNREPORT_scf_scaling.json.
//
// Flags: --quick  the CI preset (fewer SCF iterations, a smaller section-1
//                 problem, section 5 skipped).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dd/backend.hpp"
#include "dd/engine.hpp"
#include "dd/pipeline.hpp"
#include "ks/hamiltonian.hpp"
#include "ks/scf.hpp"
#include "la/iterative.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "xc/lda.hpp"

using namespace dftfe;

namespace {

using Gauges = std::vector<std::pair<std::string, double>>;

constexpr double kNelec = 12.0;  // electrons in every SCF workload

struct ScfRun {
  double wall = 0.0;
  double dense_s = 0.0;  // CholGS-S + RR-P obs-span seconds of the kept rep
  ks::ScfResult res;
};

/// Span seconds of the dense subspace steps, read from the profile
/// registry the RunReport carries.
double dense_span_seconds() {
  const auto& prof = ProfileRegistry::global();
  return prof.seconds("CholGS-S") + prof.seconds("RR-P");
}

/// Best-of-`reps` SCF wall (the minimum filters scheduler jitter; every rep
/// computes identical results, so the kept ScfResult is rep-independent).
ScfRun run_scf(const fe::DofHandler& dofh, const ks::ScfOptions& opt,
               const dd::BackendOptions& backend, const std::vector<double>& vext,
               int reps = 1) {
  ScfRun out;
  for (int rep = 0; rep < reps; ++rep) {
    obs::TraceRecorder::global().clear();
    const double dense0 = dense_span_seconds();
    ks::KohnShamDFT<double> dft(dofh, std::make_shared<xc::LdaPW92>(), {}, opt, backend);
    dft.set_external_potential(vext, kNelec);
    Timer t;
    auto res = dft.solve();
    const double wall = t.seconds();
    if (rep == 0 || wall < out.wall) {
      out.wall = wall;
      out.dense_s = dense_span_seconds() - dense0;
      out.res = std::move(res);
    }
  }
  return out;
}

/// External potential of the SCF workloads: Gaussian wells of depth 2 Ha
/// and width 2 bohr at `sites`.
std::vector<double> gaussian_wells(const fe::DofHandler& dofh,
                                   const std::vector<std::array<double, 3>>& sites) {
  std::vector<double> vext(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    double v = 0.0;
    for (const auto& s : sites) {
      const double dx = p[0] - s[0], dy = p[1] - s[1], dz = p[2] - s[2];
      v -= 2.0 * std::exp(-(dx * dx + dy * dy + dz * dz) / 4.0);
    }
    vext[g] = v;
  }
  return vext;
}

/// Fixed-work SCF of sections 2-4: the density tolerance is unreachable on
/// purpose, so every run does identical work. The Hartree solve is left out:
/// at paper scale electrostatics is a few percent of the runtime (Table 3),
/// while in boxes this small its PCG would be grossly overweighted; the
/// threaded Poisson path is covered by tests/test_backend.cpp.
ks::ScfOptions fixed_work_scf(bool quick) {
  ks::ScfOptions base;
  base.nstates = 16;
  base.temperature = 5e-3;
  base.cheb_degree = 24;
  base.block_size = 16;
  base.max_iterations = quick ? 3 : 5;
  base.first_iteration_cycles = 2;
  base.density_tol = 1e-14;
  base.include_hartree = false;
  return base;
}

/// Threaded lanes over `grid` under `mode`; with `wire`, behind the emulated
/// interconnect.
dd::BackendOptions on_lanes(std::array<int, 3> grid, dd::EngineMode mode,
                            const bench::InjectedWire* wire = nullptr) {
  dd::BackendOptions backend;
  backend.kind = dd::BackendKind::threaded;
  backend.nlanes = grid[0] * grid[1] * grid[2];
  backend.grid = grid;
  backend.mode = mode;
  if (wire != nullptr) {
    backend.inject_wire_delay = true;
    backend.model = wire->model;
  }
  return backend;
}

index_t plane_size(const fe::DofHandler& dofh) { return dofh.naxis(0) * dofh.naxis(1); }

void print_wire(const bench::InjectedWire& wire, const char* packet) {
  std::printf("[emulated wire] interconnect emulation, calibrated injected delay: %.2f ms\n"
              "per %s\n",
              1e3 * wire.delay, packet);
}

// ---- Section 1: sync vs async on the blocked Chebyshev filter ----------

struct FilterRun {
  double wall = 0.0;     // best-of-reps filter wall
  double modeled = 0.0;  // total modeled wire time of that run
  std::vector<dd::BlockTiming> blocks;
};

FilterRun run_filter(dd::RankEngine<double>& eng, la::Matrix<double>& X,
                     const la::Matrix<double>& X0, int degree, const bench::FilterBounds& fb,
                     int reps) {
  FilterRun best;
  for (int rep = 0; rep < reps; ++rep) {
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = X0.data()[i];
    Timer t;
    eng.filter_block(X, 0, X.cols(), degree, fb.a, fb.b, fb.a0);
    const double wall = t.seconds();
    if (rep == 0 || wall < best.wall) {
      best.wall = wall;
      best.modeled = 0.0;
      best.blocks.clear();
      for (const auto& st : eng.last_step_stats()) {
        best.blocks.push_back({st.compute, st.modeled});
        best.modeled += st.modeled;
      }
    }
  }
  return best;
}

/// Three cell layers per lane, so each lane has real interior compute for
/// the overlapped schedule to hide the wire behind. Half a step of injected
/// delay per packet: the synchronous schedule pays it every recurrence step,
/// the overlapped one hides it.
Gauges ablation_async(bool quick) {
  std::printf("---- 1. ablation_async: sync vs overlapped halo schedule in the blocked CF\n"
              "     (Sec. 5.4.3) [emulated wire: interconnect emulation] ----\n");
  const int lanes = 4;
  const int fe_degree = quick ? 3 : 4;
  const index_t ncols = quick ? 16 : 32;
  const int cheb_degree = quick ? 10 : 12;
  const int reps = quick ? 3 : 5;
  const fe::Mesh mesh = fe::make_uniform_mesh(12.0, 12, false);
  const fe::DofHandler dofh(mesh, fe_degree);
  const bench::FilterBounds fb = bench::filter_bounds(dofh);
  la::Matrix<double> X0(dofh.ndofs(), ncols), X(dofh.ndofs(), ncols);
  for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.17 * i);

  dd::BackendOptions popt;
  popt.nlanes = lanes;
  popt.grid = {1, 1, lanes};  // pin z-slabs: the ablation is calibrated on slab packets
  popt.mode = dd::EngineMode::sync;
  popt.wire = dd::Wire::fp64;
  const bench::InjectedWire wire = bench::calibrated_wire(
      bench::probe_step_compute(dofh, popt, ncols, cheb_degree, 2), 0.5,
      dd::halo_packet_bytes<double>(plane_size(dofh) * ncols, dd::Wire::fp64));
  dd::BackendOptions opt = popt;
  opt.inject_wire_delay = true;
  opt.model = wire.model;

  dd::RankEngine<double> eng(dofh, opt);
  eng.set_potential(std::vector<double>(dofh.ndofs(), bench::kFilterPotential));
  eng.set_mode(dd::EngineMode::sync);
  const FilterRun sync = run_filter(eng, X, X0, cheb_degree, fb, reps);
  eng.set_mode(dd::EngineMode::async);
  const FilterRun async = run_filter(eng, X, X0, cheb_degree, fb, reps);
  const double speedup = sync.wall / async.wall;

  std::printf("%d lanes, p=%d, %lld dofs, %d-col block, Chebyshev degree %d\n", lanes,
              fe_degree, static_cast<long long>(dofh.ndofs()), static_cast<int>(ncols),
              cheb_degree);
  print_wire(wire, "FP64 plane packet");
  TextTable t({"schedule", "wall (s)", "modeled comm (s)", "sim sync (s)", "sim overlap (s)"});
  for (const auto* run : {&sync, &async})
    t.add(run == &sync ? "sync" : "async", TextTable::num(run->wall, 4),
          TextTable::num(run->modeled, 4), TextTable::num(dd::simulate_sync(run->blocks), 4),
          TextTable::num(dd::simulate_overlap(run->blocks), 4));
  t.print();
  std::printf("measured async speedup: %.2fx (acceptance gate: >= 1.15x)\n\n", speedup);
  return {{"lanes", static_cast<double>(lanes)},
          {"sync_wall_s", sync.wall},
          {"async_wall_s", async.wall},
          {"speedup", speedup},
          {"injected_delay_s", wire.delay},
          {"modeled_comm_s", sync.modeled}};
}

// ---- Section 2: whole-SCF strong scaling --------------------------------

/// The z-elongated chain workload of sections 2 and 3: each of 4 z-slab
/// lanes owns 24 cell layers, ~92% of its per-step compute interior work the
/// async schedule can hide the wire behind. `step_compute` receives the
/// {1,1,4} calibration probe, which section 3 reuses.
Gauges scf_strong(const fe::DofHandler& dofh, const std::vector<double>& vext, bool quick,
                  double& step_compute) {
  std::printf("---- 2. scf_strong: whole-SCF strong scaling on z-slab lanes ----\n");
  const ks::ScfOptions base = fixed_work_scf(quick);
  std::printf("workload: p=2, %lld dofs (8 x 8 x 96 cells), %d states, Chebyshev\n"
              "degree %d, %d SCF iterations (fixed), LDA XC, 4-well chain / %.0f e-\n\n",
              static_cast<long long>(dofh.ndofs()), static_cast<int>(base.nstates),
              base.cheb_degree, base.max_iterations, kNelec);

  // Free wire: serial backend vs threaded lanes {1, 2, 4}. Scaling tops out
  // at the physical core count of the host.
  const ScfRun serial = run_scf(dofh, base, {}, vext);
  const double e_ref = serial.res.energy.total;
  TextTable st({"backend", "lanes", "SCF wall (s)", "speedup", "efficiency", "|dE| (Ha)"});
  st.add("serial", 1, TextTable::num(serial.wall, 3), "1.00", "100.0%", "0");
  double energy_diff = 0.0;
  double wall_lanes[3] = {0.0, 0.0, 0.0};
  const int lane_counts[3] = {1, 2, 4};
  for (int li = 0; li < 3; ++li) {
    // z-slabs; bricks are section 4's job.
    const ScfRun r =
        run_scf(dofh, base, on_lanes({1, 1, lane_counts[li]}, dd::EngineMode::async), vext);
    wall_lanes[li] = r.wall;
    const double de = std::abs(r.res.energy.total - e_ref);
    energy_diff = std::max(energy_diff, de);
    st.add("threaded", lane_counts[li], TextTable::num(r.wall, 3),
           TextTable::num(serial.wall / r.wall, 2),
           TextTable::num(100.0 * serial.wall / (r.wall * lane_counts[li]), 1) + "%",
           TextTable::num(de, 2));
    if (lane_counts[li] == 4) {
      // Per-lane wall-time view (needs tracing ON; empty otherwise).
      std::printf("per-lane breakdown of the 4-lane SCF:\n");
      obs::lane_breakdown_table().print();
    }
  }
  st.print();
  std::printf("\n");

  // Emulated wire at 4 lanes: delay 0.8x the per-step compute, just inside
  // each lane's interior compute (22 of 24 owned cell layers), so the
  // overlapped schedule can hide the wire completely while the synchronous
  // one pays it on every recurrence step. Packets are sized in the wire
  // format the SCF backend uses (the threaded default, FP32).
  dd::BackendOptions popt;
  popt.nlanes = 4;
  popt.grid = {1, 1, 4};
  popt.mode = dd::EngineMode::sync;
  popt.wire = dd::Wire::fp64;
  step_compute = bench::probe_step_compute(dofh, popt, base.block_size, base.cheb_degree);
  const bench::InjectedWire wire = bench::calibrated_wire(
      step_compute, 0.8,
      dd::halo_packet_bytes<double>(plane_size(dofh) * base.block_size,
                                    dd::BackendOptions{}.wire));
  print_wire(wire, "16-col FP32 halo packet");

  const ScfRun sync =
      run_scf(dofh, base, on_lanes({1, 1, 4}, dd::EngineMode::sync, &wire), vext, 2);
  const ScfRun async =
      run_scf(dofh, base, on_lanes({1, 1, 4}, dd::EngineMode::async, &wire), vext, 2);
  energy_diff = std::max(energy_diff, std::abs(sync.res.energy.total - e_ref));
  energy_diff = std::max(energy_diff, std::abs(async.res.energy.total - e_ref));
  const double speedup = sync.wall / async.wall;

  TextTable dt({"schedule [emulated wire]", "SCF wall (s)", "speedup"});
  dt.add("sync", TextTable::num(sync.wall, 3), "1.00");
  dt.add("async", TextTable::num(async.wall, 3), TextTable::num(speedup, 2));
  dt.print();
  std::printf("measured end-to-end async speedup at 4 lanes: %.2fx "
              "(acceptance gate: >= 1.5x)\n",
              speedup);
  std::printf("max |E_threaded - E_serial| over all runs: %.3e Ha "
              "(gate: <= 1e-8; FP32 default wire)\n\n",
              energy_diff);
  return {{"lanes", 4.0},
          {"serial_wall_s", serial.wall},
          {"lanes1_wall_s", wall_lanes[0]},
          {"lanes2_wall_s", wall_lanes[1]},
          {"lanes4_wall_s", wall_lanes[2]},
          {"sync_wall_s", sync.wall},
          {"async_wall_s", async.wall},
          {"speedup", speedup},
          {"injected_delay_s", wire.delay},
          {"energy_diff_ha", energy_diff},
          {"energy_agree", energy_diff <= 1e-8 ? 1.0 : 0.0}};
}

// ---- Section 3: whole-SCF mixed precision -------------------------------

struct Variant {
  const char* name;
  dd::Wire wire;
  bool mixed;  // FP32 off-diagonal CholGS-S / RR-P blocks
};

constexpr Variant kVariants[] = {
    {"fp64", dd::Wire::fp64, false},
    {"fp32", dd::Wire::fp32, true},
    {"bf16", dd::Wire::bf16, true},
};

/// Sec. 5.4.2 at whole-SCF scope on the section-2 workload. The free-wire
/// rows isolate the compute effect of the FP32 subspace blocks (the wire
/// format is inert there); the emulated-wire rows run sync halo waits, so
/// halving (FP32) or quartering (BF16) the wire bytes shows up as wall time.
/// Energies of unconverged fixed-work runs differ at first order in the FP32
/// perturbation, so accuracy is gated where the paper makes the claim: at
/// SCF convergence, where the energy is variationally stationary.
Gauges scf_mixed(const fe::DofHandler& dofh, const std::vector<double>& vext, bool quick,
                 double step_compute) {
  std::printf("---- 3. scf_mixed: whole-SCF mixed precision (Sec. 5.4.2), FP64 everything vs\n"
              "     FP32/BF16 wire + FP32 off-diagonal subspace blocks ----\n");
  ks::ScfOptions base = fixed_work_scf(quick);
  // 16 states in 4-column tiles: 12 of 16 blocks off-diagonal, so the FP32
  // subspace policy does real work (one 64-column tile would be all FP64).
  base.mp_block = 4;
  Gauges gauges;

  // Free wire, 1 and 4 lanes.
  double e_ref = 0.0;  // FP64-everything single-lane total energy (fixed work)
  double dense64_s = 0.0, dense32_s = 0.0;  // 1-lane CholGS-S + RR-P seconds
  TextTable ft({"variant", "lanes", "SCF wall (s)", "CholGS-S + RR-P (s)", "|dE| (Ha)"});
  for (const int lanes : {1, 4}) {
    for (const Variant& var : kVariants) {
      dd::BackendOptions backend = on_lanes({1, 1, lanes}, dd::EngineMode::async);
      backend.wire = var.wire;
      ks::ScfOptions opt = base;
      opt.mixed_precision = var.mixed;
      const ScfRun r = run_scf(dofh, opt, backend, vext);
      if (lanes == 1 && var.wire == dd::Wire::fp64) {
        e_ref = r.res.energy.total;
        dense64_s = r.dense_s;
      }
      if (lanes == 1 && var.wire == dd::Wire::fp32) dense32_s = r.dense_s;
      const double de = std::abs(r.res.energy.total - e_ref);
      ft.add(var.name, lanes, TextTable::num(r.wall, 3), TextTable::num(r.dense_s, 3),
             var.wire == dd::Wire::fp64 && lanes == 1 ? "reference" : TextTable::sci(de, 2));
      gauges.emplace_back(std::string(var.name) + "_lanes" + std::to_string(lanes) + "_wall_s",
                          r.wall);
    }
  }
  ft.print();
  std::printf("(free wire: |dE| on these unconverged fixed-work iterates is first-order\n"
              "in the rounding; the accuracy gate is the converged comparison below)\n\n");

  // Emulated wire, 4 lanes, sync: the section-2 probe, 0.8x per FP64 packet.
  const bench::InjectedWire wire = bench::calibrated_wire(
      step_compute, 0.8,
      dd::halo_packet_bytes<double>(plane_size(dofh) * base.block_size, dd::Wire::fp64));
  print_wire(wire, "16-col FP64 halo packet (FP32 ~half, BF16 ~a quarter)");
  double wall[3] = {0.0, 0.0, 0.0};
  TextTable dt({"variant [emulated wire]", "SCF wall (s)", "speedup vs fp64", "|dE| (Ha)"});
  for (int vi = 0; vi < 3; ++vi) {
    const Variant& var = kVariants[vi];
    dd::BackendOptions backend = on_lanes({1, 1, 4}, dd::EngineMode::sync, &wire);
    backend.wire = var.wire;
    ks::ScfOptions opt = base;
    opt.mixed_precision = var.mixed;
    const ScfRun r = run_scf(dofh, opt, backend, vext, 2);
    wall[vi] = r.wall;
    dt.add(var.name, TextTable::num(r.wall, 3),
           vi == 0 ? "1.00" : TextTable::num(wall[0] / r.wall, 2),
           TextTable::sci(std::abs(r.res.energy.total - e_ref), 2));
  }
  dt.print();
  const double speedup = wall[0] / wall[1];
  const double bf16_speedup = wall[0] / wall[2];
  std::printf("measured end-to-end SCF speedup at 4 lanes (sync, emulated wire):\n"
              "  fp32 wire + FP32 subspace blocks: %.2fx  (acceptance gate: >= 1.10x)\n"
              "  bf16 wire + FP32 subspace blocks: %.2fx\n\n",
              speedup, bf16_speedup);

  // Accuracy at convergence: a 4-lane FP32-wire mixed-precision solve must
  // land on the converged 1-lane FP64-everything energy to <= 1e-8 Ha. Both
  // run to a reachable density tolerance instead of the fixed-work cap.
  base.max_iterations = 40;
  base.density_tol = quick ? 1e-6 : 1e-7;
  ks::ScfOptions conv = base;
  conv.mixed_precision = false;
  dd::BackendOptions conv_backend = on_lanes({1, 1, 1}, dd::EngineMode::async);
  conv_backend.wire = dd::Wire::fp64;
  const ScfRun c64 = run_scf(dofh, conv, conv_backend, vext);
  ks::ScfOptions conv32 = base;
  conv32.mixed_precision = true;
  dd::BackendOptions conv32_backend = on_lanes({1, 1, 4}, dd::EngineMode::async);
  conv32_backend.wire = dd::Wire::fp32;
  const ScfRun c32 = run_scf(dofh, conv32, conv32_backend, vext);
  const double energy_diff = std::abs(c32.res.energy.total - c64.res.energy.total);
  const bool converged = c64.res.converged && c32.res.converged;
  std::printf("converged accuracy gate (density_tol %.0e, %d + %d iterations):\n"
              "  |E_fp32_4lane - E_fp64_1lane| = %.3e Ha (gate: <= 1e-8; both %s)\n\n",
              conv.density_tol, c64.res.iterations, c32.res.iterations, energy_diff,
              converged ? "converged" : "NOT CONVERGED");

  gauges.insert(gauges.end(), {{"lanes", 4.0},
                               {"injected_delay_s", wire.delay},
                               {"fp64_sync_wall_s", wall[0]},
                               {"fp32_sync_wall_s", wall[1]},
                               {"bf16_sync_wall_s", wall[2]},
                               {"speedup", speedup},
                               {"bf16_speedup", bf16_speedup},
                               {"dense_fp64_s", dense64_s},
                               {"dense_fp32_s", dense32_s},
                               {"energy_diff_ha", energy_diff},
                               {"converged", converged ? 1.0 : 0.0},
                               {"energy_agree", energy_diff <= 1e-8 ? 1.0 : 0.0}});
  return gauges;
}

// ---- Section 4: z-slab vs 3D brick at 8 lanes ---------------------------

/// On a 12^3-cell cube the {1,1,8} z-slabs are 1-2 cell layers thick —
/// all boundary, no interior — so they pay the full-plane wire exposed in
/// either schedule; the {2,2,2} bricks own 6^3-cell sub-boxes, move
/// quarter-plane faces, and overlap them behind their interiors. The
/// emulated wire makes that regime explicit: 4x a step's compute per
/// full-plane slab packet, with the bricks' smaller packets charged
/// proportionally less.
Gauges scf_brick(bool quick) {
  std::printf("---- 4. scf_brick: z-slab vs 3D-brick decomposition at 8 lanes ----\n");
  const double L = 12.0;
  const fe::Mesh mesh = fe::make_uniform_mesh(L, 12, false);
  const fe::DofHandler dofh(mesh, 2);
  const double c = L / 2;
  const std::vector<double> vext =
      gaussian_wells(dofh, {{c - 1.2, c - 1.2, c - 1.2},
                            {c + 1.2, c + 1.2, c - 1.2},
                            {c + 1.2, c - 1.2, c + 1.2},
                            {c - 1.2, c + 1.2, c + 1.2}});
  const ks::ScfOptions base = fixed_work_scf(quick);
  const std::array<int, 3> slab_grid{1, 1, 8};
  const std::array<int, 3> brick_grid{2, 2, 2};
  std::printf("workload: p=2, %lld dofs (12^3 cells), %d states, Chebyshev degree %d,\n"
              "%d SCF iterations (fixed), LDA XC, 4-well cluster / %.0f e-\n\n",
              static_cast<long long>(dofh.ndofs()), static_cast<int>(base.nstates),
              base.cheb_degree, base.max_iterations, kNelec);

  // Exact halo bytes per apply, free wire: the brick must move strictly
  // fewer bytes than the slab.
  std::int64_t halo_bytes[2] = {0, 0};
  {
    la::Matrix<double> X(dofh.ndofs(), base.block_size), Y;
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.17 * i);
    const std::array<int, 3> grids[2] = {slab_grid, brick_grid};
    TextTable bt({"partition", "grid", "halo bytes / apply", "messages"});
    for (int gi = 0; gi < 2; ++gi) {
      dd::BackendOptions eopt;
      eopt.grid = grids[gi];
      eopt.nlanes = 8;
      eopt.wire = dd::Wire::fp64;
      dd::RankEngine<double> eng(dofh, eopt);
      eng.set_potential(std::vector<double>(dofh.ndofs(), bench::kFilterPotential));
      eng.apply(X, Y);
      halo_bytes[gi] = eng.comm_stats().bytes();
      char gbuf[24];
      std::snprintf(gbuf, sizeof gbuf, "%dx%dx%d", grids[gi][0], grids[gi][1], grids[gi][2]);
      bt.add(gi == 0 ? "z-slab" : "brick", gbuf, static_cast<long long>(halo_bytes[gi]),
             static_cast<long long>(eng.comm_stats().messages));
    }
    bt.print();
    std::printf("brick / slab halo bytes: %.3f (acceptance: strictly < 1)\n\n",
                static_cast<double>(halo_bytes[1]) / static_cast<double>(halo_bytes[0]));
  }

  // Modeled Gram combine at 8 lanes: one nstates^2 FP64 partial per hop.
  dd::CommModel gram_net;
  const double gram_msg =
      gram_net.time(static_cast<std::int64_t>(base.nstates) * base.nstates * 8, 1);
  const double flat_s = dd::allreduce_flat_time(gram_msg, 8);
  const double tree_s = dd::allreduce_tree_time(gram_msg, 8);
  std::printf("modeled Gram reduction at 8 lanes (%d^2 FP64 partials):\n"
              "  flat all-to-lane-0: %.1f us   stride-doubling tree: %.1f us (%.2fx)\n\n",
              static_cast<int>(base.nstates), 1e6 * flat_s, 1e6 * tree_s, flat_s / tree_s);

  // Whole SCF at 8 lanes under the emulated wire.
  const ScfRun serial = run_scf(dofh, base, {}, vext);
  const double e_ref = serial.res.energy.total;
  dd::BackendOptions popt;
  popt.nlanes = 8;
  popt.grid = slab_grid;
  popt.mode = dd::EngineMode::sync;
  popt.wire = dd::Wire::fp64;
  const bench::InjectedWire wire = bench::calibrated_wire(
      bench::probe_step_compute(dofh, popt, base.block_size, base.cheb_degree), 4.0,
      dd::halo_packet_bytes<double>(plane_size(dofh) * base.block_size,
                                    dd::BackendOptions{}.wire));
  print_wire(wire, "full-plane FP32 slab packet");

  double energy_diff = 0.0;
  double walls[2][2] = {{0.0, 0.0}, {0.0, 0.0}};  // [slab|brick][sync|async]
  TextTable st({"partition", "schedule [emulated wire]", "SCF wall (s)", "vs slab-sync",
                "|dE| (Ha)"});
  for (int gi = 0; gi < 2; ++gi) {
    for (int mi = 0; mi < 2; ++mi) {
      const ScfRun r = run_scf(dofh, base,
                               on_lanes(gi == 0 ? slab_grid : brick_grid,
                                        mi == 0 ? dd::EngineMode::sync : dd::EngineMode::async,
                                        &wire),
                               vext, quick ? 1 : 2);
      walls[gi][mi] = r.wall;
      const double de = std::abs(r.res.energy.total - e_ref);
      energy_diff = std::max(energy_diff, de);
      st.add(gi == 0 ? "z-slab" : "brick", mi == 0 ? "sync" : "async",
             TextTable::num(r.wall, 3), TextTable::num(walls[0][0] / r.wall, 2),
             TextTable::num(de, 2));
      if (gi == 1 && mi == 1) {
        std::printf("per-lane breakdown of the brick-async SCF:\n");
        obs::lane_breakdown_table().print();
      }
    }
  }
  st.print();
  // Best schedule of each partition: with no slab interior the two slab
  // schedules tie, so this is decomposition geometry head-to-head.
  const double speedup8 =
      std::min(walls[0][0], walls[0][1]) / std::min(walls[1][0], walls[1][1]);
  std::printf("measured 8-lane speedup, best brick over best slab: %.2fx "
              "(acceptance gate: >= 1.5x)\n",
              speedup8);
  std::printf("max |E_threaded - E_serial| over all runs: %.3e Ha "
              "(gate: <= 1e-8; FP32 default wire)\n\n",
              energy_diff);
  return {{"lanes", 8.0},
          {"serial_wall_s", serial.wall},
          {"slab_sync_wall_s", walls[0][0]},
          {"slab_async_wall_s", walls[0][1]},
          {"brick_sync_wall_s", walls[1][0]},
          {"brick_async_wall_s", walls[1][1]},
          {"speedup8", speedup8},
          {"slab_halo_bytes", static_cast<double>(halo_bytes[0])},
          {"brick_halo_bytes", static_cast<double>(halo_bytes[1])},
          {"halo_bytes_improved", halo_bytes[1] < halo_bytes[0] ? 1.0 : 0.0},
          {"gram_allreduce_flat_s", flat_s},
          {"gram_allreduce_tree_s", tree_s},
          {"injected_delay_s", wire.delay},
          {"energy_diff_ha", energy_diff},
          {"energy_agree", energy_diff <= 1e-8 ? 1.0 : 0.0}};
}

// ---- Section 5: measured filter-block strong scaling ---------------------

/// The real-core counterpart of bench_fig5's modeled Summit table: one
/// Chebyshev filter block on 1/2/4 z-slab lanes, free wire, best of 3.
Gauges fig5_measured() {
  std::printf("---- 5. fig5.measured: filter-block strong scaling, free wire ----\n");
  const fe::Mesh mesh = fe::make_uniform_mesh(12.0, 12, false);
  const fe::DofHandler dofh(mesh, 3);
  const bench::FilterBounds fb = bench::filter_bounds(dofh);
  la::Matrix<double> X0(dofh.ndofs(), 32), X(dofh.ndofs(), 32);
  for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.17 * i);

  std::printf("p=3, %lld dofs, 32-col block, Chebyshev degree 10; host has %u hardware\n"
              "threads\n",
              static_cast<long long>(dofh.ndofs()), std::thread::hardware_concurrency());
  Gauges gauges;
  TextTable et({"lanes", "wall (s)", "speedup", "efficiency"});
  double wall1 = 0.0;
  for (const int lanes : {1, 2, 4}) {
    dd::BackendOptions eopt;
    eopt.nlanes = lanes;
    eopt.grid = {1, 1, lanes};
    eopt.mode = dd::EngineMode::async;
    eopt.wire = dd::Wire::fp64;
    dd::RankEngine<double> eng(dofh, eopt);
    eng.set_potential(std::vector<double>(dofh.ndofs(), bench::kFilterPotential));
    const double wall = run_filter(eng, X, X0, 10, fb, 3).wall;
    if (lanes == 1) wall1 = wall;
    et.add(lanes, TextTable::num(wall, 4), TextTable::num(wall1 / wall, 2),
           TextTable::num(100.0 * wall1 / (wall * lanes), 1) + "%");
    gauges.emplace_back("lanes" + std::to_string(lanes) + ".wall_s", wall);
  }
  et.print();
  std::printf("\n");
  return gauges;
}

void append(Gauges& all, const std::string& prefix, const Gauges& section) {
  for (const auto& [key, value] : section) all.emplace_back(prefix + "." + key, value);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_preamble(
      "Measured scaling on the threaded rank engine: async overlap, whole-SCF\n"
      "strong scaling, mixed precision, slab vs brick (rows marked [emulated wire]\n"
      "are interconnect emulation: a calibrated injected halo delay)");

  Gauges gauges;
  append(gauges, "ablation_async", ablation_async(quick));

  const double Lxy = 8.0, Lz = 96.0;
  const fe::Mesh chain_mesh(fe::make_uniform_axis(Lxy, 8), fe::make_uniform_axis(Lxy, 8),
                            fe::make_uniform_axis(Lz, 96));
  const fe::DofHandler chain(chain_mesh, 2);
  std::vector<std::array<double, 3>> wells;
  for (int i = 0; i < 4; ++i) wells.push_back({Lxy / 2, Lxy / 2, Lz / 2 + (i - 1.5) * 2.4});
  const std::vector<double> chain_vext = gaussian_wells(chain, wells);
  double chain_step_compute = 0.0;
  append(gauges, "scf_strong", scf_strong(chain, chain_vext, quick, chain_step_compute));
  append(gauges, "scf_mixed", scf_mixed(chain, chain_vext, quick, chain_step_compute));

  append(gauges, "scf_brick", scf_brick(quick));
  if (!quick) append(gauges, "fig5.measured", fig5_measured());

  bench::emit_bench_artifact("scf_scaling", "", gauges);
  return 0;
}
