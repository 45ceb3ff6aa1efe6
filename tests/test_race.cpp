// Concurrency stress suite for the shared mutable state of the SCF hot path:
// the trace/metrics/profile registries, the workspace counters, the
// mixed-precision overlap kernel, block Hamiltonian applies on per-thread
// instances, and the rank engine's halo mailboxes and lanes.
//
// Every test here is written with std::thread (not OpenMP) for the
// cross-thread interleavings, so the synchronization under test is fully
// visible to ThreadSanitizer even with an uninstrumented libgomp. The suite
// is meant to run in three build modes:
//   * plain builds: functional invariants (sums, pool integrity, determinism
//     across threads) still assert real behavior;
//   * DFTFE_SANITIZE=thread: the primary race-detection gate;
//   * DFTFE_SANITIZE=address;undefined: shakes out lifetime bugs in the
//     engine lanes and job teardown under contention.

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "base/flops.hpp"
#include "base/timer.hpp"
#include "core/job.hpp"
#include "core/model.hpp"
#include "dd/backend.hpp"
#include "dd/engine.hpp"
#include "dd/mailbox.hpp"
#include "fe/dofs.hpp"
#include "fe/mesh.hpp"
#include "ks/hamiltonian.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace dftfe {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(DFTFE_TSAN)
// GCC's libgomp is not TSan-instrumented: TSan cannot see the happens-before
// edges of OpenMP barriers and would report false races between correctly
// synchronized worker iterations inside the kernels the threads below call.
// Pinning OpenMP teams to one thread keeps this suite's std::thread
// interleavings — the synchronization actually under test — noise-free.
// See cmake/Sanitizers.cmake ("OpenMP-aware TSan handling").
// omp_set_num_threads sets the calling thread's ICV only: the std::threads
// the tests start and the svc workers still open default-size teams (engine
// lanes pin themselves). Run the suite with OMP_NUM_THREADS=1 in the
// environment (the CI tsan leg does), which every thread inherits; without
// it RaceKernels.* reports libgomp false positives and RaceService.* crawls.
struct PinOpenmpForTsan {
  PinOpenmpForTsan() { omp_set_num_threads(1); }
} pin_openmp_for_tsan;
#endif

constexpr int kThreads = 4;

/// Launch `nthreads` copies of `fn(thread_index)` and join them all.
template <class Fn>
void run_threads(int nthreads, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

TEST(RaceRegistry, ProfileRegistryConcurrentAddAndRead) {
  ProfileRegistry reg;
  constexpr int kIters = 2000;
  run_threads(kThreads, [&](int t) {
    const std::string mine = "race.thread" + std::to_string(t);
    for (int i = 0; i < kIters; ++i) {
      reg.add("race.shared", 1.0);
      reg.add(mine, 1.0);
      if (i % 64 == 0) {
        (void)reg.seconds("race.shared");
        (void)reg.find(mine);
        (void)reg.entries();
      }
    }
  });
  const auto entries = reg.entries();
  EXPECT_EQ(entries.at("race.shared").count, kThreads * kIters);
  EXPECT_DOUBLE_EQ(entries.at("race.shared").seconds, kThreads * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(entries.at("race.thread" + std::to_string(t)).count, kIters);
}

TEST(RaceRegistry, MetricsRegistryConcurrentCountersGaugesSeries) {
  obs::MetricsRegistry reg;
  constexpr int kIters = 2000;
  run_threads(kThreads, [&](int t) {
    const std::string series = "race.series" + std::to_string(t);
    for (int i = 0; i < kIters; ++i) {
      reg.counter_add("race.counter", 1.0);
      reg.gauge_set("race.gauge", static_cast<double>(t));
      reg.series_append(series, static_cast<double>(i));
      if (i % 128 == 0) (void)reg.snapshot();
    }
  });
  EXPECT_DOUBLE_EQ(reg.counter("race.counter"), kThreads * kIters);
  const double g = reg.gauge("race.gauge");
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const auto s = reg.series("race.series" + std::to_string(t));
    ASSERT_EQ(s.size(), static_cast<std::size_t>(kIters));
    EXPECT_DOUBLE_EQ(s.back(), kIters - 1.0);
  }
}

TEST(RaceRegistry, HistogramsAndReportBuildConcurrent) {
  obs::MetricsRegistry reg;
  obs::TraceRecorder rec;
  ProfileRegistry prof;
  constexpr int kIters = 1500;
  std::atomic<bool> done{false};
  // A builder thread assembles full RunReports from the live registries
  // while the workers mutate counters and gauges under the ledger
  // vocabulary and add span durations to the profile registry: every
  // registry accessor the report path uses is mutex-guarded, so the report
  // thread must only ever see consistent snapshots.
  std::thread builder([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const obs::RunReport r = obs::build_run_report("race", -1.0, rec, reg, prof);
      (void)r;
    }
  });
  run_threads(kThreads, [&](int t) {
    const std::string lane_key = "comm.lane" + std::to_string(t) + ".bytes";
    for (int i = 0; i < kIters; ++i) {
      reg.counter_add("comm.wire.fp32.bytes", 4.0);
      reg.counter_add(lane_key, 8.0);
      reg.gauge_set("mem.workspace.checkouts", static_cast<double>(i));
      prof.add("CF-halo", 1e-4 * (i + 1));
      if (i % 256 == 0) (void)reg.snapshot();
    }
  });
  done.store(true, std::memory_order_relaxed);
  builder.join();
  const obs::RunReport r = obs::build_run_report("race", -1.0, rec, reg, prof);
  EXPECT_DOUBLE_EQ(r.comm.fp32.bytes, 4.0 * kThreads * kIters);
  ASSERT_EQ(r.comm.lanes.size(), static_cast<std::size_t>(kThreads));
  for (const auto& ln : r.comm.lanes) EXPECT_DOUBLE_EQ(ln.bytes, 8.0 * kIters);
  ASSERT_NE(prof.find("CF-halo"), nullptr);
  EXPECT_EQ(prof.find("CF-halo")->count, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(RaceTrace, ConcurrentNestedSpanEmission) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  constexpr int kIters = 400;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIters; ++i) {
      obs::TraceSpan outer("CF", "race", rec, reg);
      {
        obs::TraceSpan inner("RR-P", "race", rec, reg);
      }
      if (i % 64 == 0) {
        (void)rec.size();
        (void)rec.events();
      }
    }
  });
#if DFTFE_ENABLE_TRACING
  EXPECT_EQ(rec.size() + rec.dropped(),
            static_cast<std::size_t>(2 * kThreads * kIters));
  // Parenting is per-thread call nesting: every recorded inner span's parent
  // id must differ from 0 and from its own id.
  for (const auto& ev : rec.events())
    if (ev.name == "RR-P") {
      EXPECT_NE(ev.parent, 0u);
      EXPECT_NE(ev.parent, ev.id);
      EXPECT_EQ(ev.depth, 1);
    }
#endif
  const auto entries = reg.entries();
  EXPECT_EQ(entries.at("CF").count, kThreads * kIters);
  EXPECT_EQ(entries.at("RR-P").count, kThreads * kIters);
}

TEST(RaceTrace, EnableToggleAndClearWhileRecording) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  std::atomic<bool> done{false};
  // Toggler/cleaner thread races the recorder state against span emission;
  // correctness claim is absence of data races plus bounded storage, not a
  // particular event count (toggling drops an unknowable number of spans).
  std::thread toggler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      rec.set_enabled(false);
      rec.set_enabled(true);
      rec.clear();
    }
  });
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < 1000; ++i) {
      obs::TraceSpan span("DC", "race", rec, reg);
    }
  });
  done.store(true, std::memory_order_relaxed);
  toggler.join();
  rec.set_capacity(4);
  rec.clear();
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span("DH", "race", rec, reg);
  }
  EXPECT_LE(rec.size(), 4u);
#if DFTFE_ENABLE_TRACING
  EXPECT_EQ(rec.size() + rec.dropped(), 10u);
#endif
}

TEST(RaceLog, ConcurrentWritesAndLevelChanges) {
  auto& logger = obs::Logger::global();
  const obs::LogLevel level0 = logger.level();
  std::ostringstream sink;
  logger.set_sink(&sink);
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < 500; ++i) {
      if (t == 0 && i % 16 == 0) {
        logger.set_level(obs::LogLevel::trace);
        logger.set_level(obs::LogLevel::info);
      }
      DFTFE_LOG(info) << "[race] thread " << t << " message " << i;
      DFTFE_LOG(trace) << "[race] usually filtered " << i;
    }
  });
  logger.set_sink(nullptr);
  logger.set_level(level0);
  // Whole lines only: the per-message mutex must keep interleaved threads
  // from shredding each other's output.
  std::istringstream lines(sink.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("[race]", 0), 0u) << "shredded log line: " << line;
    ++count;
  }
  EXPECT_GE(count, kThreads * 500);
}

TEST(RaceWorkspace, CountersStayConsistentAcrossThreads) {
  la::WorkspaceCounters::reset();
  run_threads(kThreads, [&](int t) {
    la::WorkMatrix<double> wm;  // one per thread, as the ownership rule requires
    for (int i = 0; i < 200; ++i) {
      la::Matrix<double>& m = wm.acquire(16, 1 + i % 16);
      m(15, m.cols() - 1) = t;
    }
  });
  EXPECT_EQ(la::WorkspaceCounters::checkouts(), kThreads * 200);
  // Each thread's buffer grows 16 times (one new column per acquire) and
  // then reshapes in place: the shared counters must see every growth once.
  EXPECT_EQ(la::WorkspaceCounters::allocations(), kThreads * 16);
  EXPECT_EQ(la::WorkspaceCounters::bytes_allocated(),
            static_cast<std::int64_t>(kThreads * 256 * sizeof(double)));
  la::WorkspaceCounters::reset();
}

TEST(RaceKernels, ConcurrentMixedOverlapMatchesSerialReference) {
  const index_t n = 96, N = 24;
  la::Matrix<double> A(n, N);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = std::sin(0.13 * i);
  la::Matrix<double> Sref;
  la::overlap_hermitian_mixed(A, A, Sref, 8, true);
  std::vector<double> worst(kThreads, 0.0);
  run_threads(kThreads, [&](int t) {
    la::Matrix<double> S;
    for (int i = 0; i < 20; ++i) {
      la::overlap_hermitian_mixed(A, A, S, 8, true);
      worst[t] = std::max(worst[t], la::max_abs_diff(S, Sref));
    }
  });
  // The FP32 off-diagonal blocks are deterministic: every thread must get
  // bitwise the same overlap as the serial reference.
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(worst[t], 0.0);
}

TEST(RaceKernels, PerThreadHamiltonianAppliesAgree) {
  const fe::Mesh mesh = fe::make_uniform_mesh(3.0, 2, true);
  const fe::DofHandler dofh(mesh, 3);
  std::vector<double> v(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) v[i] = 0.1 * std::cos(0.2 * i);

  const index_t B = 6;
  la::Matrix<double> X(dofh.ndofs(), B);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.05 * i);

  ks::Hamiltonian<double> href(dofh);
  href.set_potential(v);
  la::Matrix<double> Yref;
  href.apply_fused(X, Yref, 0.3, 1.7, nullptr, 0.0);

  // One Hamiltonian per thread (the documented concurrency contract: block
  // applies reuse per-instance scratch), all reading the shared immutable
  // DofHandler and input block.
  run_threads(kThreads, [&](int) {
    ks::Hamiltonian<double> h(dofh);
    h.set_potential(v);
    la::Matrix<double> Y;
    for (int i = 0; i < 10; ++i) {
      h.apply_fused(X, Y, 0.3, 1.7, nullptr, 0.0);
      ASSERT_EQ(la::max_abs_diff(Y, Yref), 0.0);
    }
  });
}

TEST(RaceEngine, MailboxHandoffUnderContention) {
  // Direct SPSC stress of the double-buffered halo mailbox: one producer
  // and one consumer push far more packets than slots, verifying FIFO order
  // and payload integrity under full-queue / empty-queue contention.
  dd::HaloChannel<double> ch;
  constexpr index_t kCount = 64;
  constexpr int kPackets = 2000;
  ch.init(dd::Wire::fp64, kCount);
  std::thread producer([&] {
    for (int i = 0; i < kPackets; ++i) {
      const int s = ch.begin_post();
      double* w = ch.buf<dd::Wire::fp64>(s);
      for (index_t e = 0; e < kCount; ++e) w[e] = i + 0.25 * e;
      ch.finish_post(s, dd::HaloChannel<double>::Clock::now());
    }
  });
  for (int i = 0; i < kPackets; ++i) {
    const int s = ch.wait_packet();
    const double* w = ch.cbuf<dd::Wire::fp64>(s);
    for (index_t e = 0; e < kCount; ++e)
      ASSERT_EQ(w[e], i + 0.25 * e) << "packet " << i << " corrupted or reordered";
    ch.release(s);
  }
  producer.join();
}

TEST(RaceEngine, MailboxCloseWakesBlockedPeers) {
  // A receiver blocked on an empty channel and a sender blocked on a full
  // one must both wake and throw when the channel is poisoned, instead of
  // deadlocking on a dead peer.
  dd::HaloChannel<double> ch;
  ch.init(dd::Wire::fp64, 8);
  std::atomic<int> throws{0};
  std::thread receiver([&] {
    try {
      (void)ch.wait_packet();
    } catch (const std::runtime_error&) {
      throws.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Fill both slots so the next begin_post blocks.
  for (int i = 0; i < 2; ++i) {
    // The receiver may consume packets as we post them; that is fine — the
    // close below must unblock whichever side ends up waiting.
    const int s = ch.begin_post();
    ch.finish_post(s, dd::HaloChannel<double>::Clock::now());
  }
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ch.close();
  });
  try {
    while (true) {
      const int s = ch.begin_post();
      ch.finish_post(s, dd::HaloChannel<double>::Clock::now());
    }
  } catch (const std::runtime_error&) {
    throws.fetch_add(1, std::memory_order_relaxed);
  }
  closer.join();
  receiver.join();
  EXPECT_GE(throws.load(), 1);
  // reset() restores a usable channel after the failure drained.
  ch.reset();
  const int s = ch.begin_post();
  ch.finish_post(s, dd::HaloChannel<double>::Clock::now());
  EXPECT_EQ(ch.wait_packet(), s);
  ch.release(s);
}

TEST(RaceEngine, ConcurrentLaneStartupShutdown) {
  // Engine lifecycles under contention: several threads repeatedly build a
  // multi-lane engine (spawning its lane threads), optionally run a job,
  // and tear it down, racing lane startup against job submission and the
  // stop broadcast. Results must match the undecomposed reference exactly
  // as in the single-threaded tests.
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) v[i] = -0.3 * std::cos(0.11 * i);
  la::Matrix<double> X(dofh.ndofs(), 3);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.29 * i);
  ks::Hamiltonian<double> href(dofh);
  href.set_potential(v);
  la::Matrix<double> Yref;
  href.apply(X, Yref);

  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < 6; ++i) {
      dd::BackendOptions opt;
      opt.nlanes = 2 + (i + t) % 3;
      opt.mode = (i % 2 == 0) ? dd::EngineMode::async : dd::EngineMode::sync;
      opt.wire = dd::Wire::fp64;
      dd::RankEngine<double> eng(dofh, opt);
      if (i % 3 == 2) continue;  // startup immediately followed by shutdown
      eng.set_potential(v);
      la::Matrix<double> Y;
      eng.apply(X, Y);
      ASSERT_LT(la::max_abs_diff(Y, Yref), 1e-12);
    }
  });
}

TEST(RaceEngine, Bf16WireLaneChurn) {
  // Same lifecycle churn as ConcurrentLaneStartupShutdown but on the BF16
  // halo wire: the per-lane bf16 scratch buffers, the demote/promote pack
  // loops, and the per-job drift-budget bookkeeping must be race-free under
  // repeated lane startup/shutdown. Tolerance is loose — BF16 rounds the
  // interface-plane contributions to ~2^-8 relative — but the result must
  // stay within that bound of the undecomposed reference every cycle.
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) v[i] = -0.3 * std::cos(0.11 * i);
  la::Matrix<double> X(dofh.ndofs(), 3);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.29 * i);
  ks::Hamiltonian<double> href(dofh);
  href.set_potential(v);
  la::Matrix<double> Yref;
  href.apply(X, Yref);
  double ymax = 0.0;
  for (index_t i = 0; i < Yref.size(); ++i) ymax = std::max(ymax, std::abs(Yref.data()[i]));

  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < 6; ++i) {
      dd::BackendOptions opt;
      opt.nlanes = 2 + (i + t) % 3;
      opt.mode = (i % 2 == 0) ? dd::EngineMode::async : dd::EngineMode::sync;
      opt.wire = dd::Wire::bf16;
      dd::RankEngine<double> eng(dofh, opt);
      if (i % 3 == 2) continue;  // startup immediately followed by shutdown
      eng.set_potential(v);
      la::Matrix<double> Y;
      eng.apply(X, Y);
      ASSERT_LT(la::max_abs_diff(Y, Yref), 0.02 * ymax);
      ASSERT_GT(eng.comm_stats().line(dd::Wire::bf16).bytes, 0);
    }
  });
}

TEST(RaceEngine, BrickLaneChurn26NeighborMailboxes) {
  // Lifecycle churn on full 3D brick grids over a fully periodic box: with
  // {2,2,2} every lane runs all 26 face/edge/corner mailbox pairs (wraps
  // included), so lane startup, the per-direction channel wiring, the 26-way
  // post/drain of both schedules, and the stop broadcast across ~R*26
  // channels are all exercised under scheduling contention from the other
  // threads' engines. Results must match the undecomposed reference.
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) v[i] = -0.3 * std::cos(0.11 * i);
  la::Matrix<double> X(dofh.ndofs(), 3);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.29 * i);
  ks::Hamiltonian<double> href(dofh);
  href.set_potential(v);
  la::Matrix<double> Yref;
  href.apply(X, Yref);

  const std::array<int, 3> grids[] = {{2, 2, 2}, {2, 2, 1}, {2, 1, 2}, {1, 2, 2}};
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < 6; ++i) {
      dd::BackendOptions opt;
      opt.grid = grids[(i + t) % 4];
      opt.nlanes = opt.grid[0] * opt.grid[1] * opt.grid[2];
      opt.mode = (i % 2 == 0) ? dd::EngineMode::async : dd::EngineMode::sync;
      opt.wire = dd::Wire::fp64;
      dd::RankEngine<double> eng(dofh, opt);
      if (i % 3 == 2) continue;  // startup immediately followed by shutdown
      eng.set_potential(v);
      la::Matrix<double> Y;
      eng.apply(X, Y);
      ASSERT_LT(la::max_abs_diff(Y, Yref), 1e-12);
    }
  });
}

TEST(RaceEngine, LaneFaultPropagationUnderContention) {
  // Each thread owns an engine and alternates injected lane faults with
  // real jobs: the fault must surface on the submitting thread as an
  // exception every time, and the poisoned mailboxes must come back clean
  // for the next job, under whatever scheduling contention the other
  // engines generate.
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs(), -0.5);
  la::Matrix<double> X(dofh.ndofs(), 2);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::cos(0.17 * i);
  ks::Hamiltonian<double> href(dofh);
  href.set_potential(v);
  la::Matrix<double> Yref;
  href.apply(X, Yref);

  run_threads(kThreads, [&](int t) {
    dd::BackendOptions opt;
    opt.nlanes = 4;
    opt.wire = dd::Wire::fp64;
    dd::RankEngine<double> eng(dofh, opt);
    eng.set_potential(v);
    la::Matrix<double> Y;
    for (int i = 0; i < 10; ++i) {
      ASSERT_THROW(eng.debug_fault((i + t) % opt.nlanes), std::runtime_error);
      eng.apply(X, Y);
      ASSERT_LT(la::max_abs_diff(Y, Yref), 1e-12);
    }
  });
}

TEST(RaceBackend, ConcurrentRankEnginesAllStagesAgree) {
  // Each thread owns a full RankEngine backend (its own lanes, mailboxes, and
  // Gram/density job state) and sweeps every ExecBackend stage — apply,
  // filter, the slab-partial Gram reduction, and the disjoint-owned-rows
  // density accumulation — under whatever scheduling contention the other
  // backends generate. The Gram and density lane jobs are new in the
  // backend refactor and are otherwise only exercised single-threaded.
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) v[i] = -0.3 * std::cos(0.11 * i);
  ks::Hamiltonian<double> href(dofh);
  href.set_potential(v);

  la::Matrix<double> X(dofh.ndofs(), 4);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.29 * i);
  la::Matrix<double> Yref, Sref;
  href.apply(X, Yref);
  la::overlap_hermitian_mixed(X, Yref, Sref, 2, false);
  const std::vector<double> occ = {2.0, 1.4, 0.7, 0.1};
  std::vector<double> rho_ref(dofh.ndofs(), 0.0);
  {
    dd::BackendOptions sopt;
    auto serial = dd::make_backend<double>(
        dofh, sopt,
        [&href](const la::Matrix<double>& A, la::Matrix<double>& B, double c, double s,
                const la::Matrix<double>* Z, double zc) {
          href.apply_fused(A, B, c, s, Z, zc);
        });
    serial->accumulate_density(X, occ, 1.0, rho_ref);
  }

  run_threads(kThreads, [&](int t) {
    dd::BackendOptions opt;
    opt.nlanes = 2 + t % 2;
    opt.wire = dd::Wire::fp64;
    dd::RankEngine<double> be(dofh, opt);
    be.set_potential(v);
    la::Matrix<double> Y, S;
    std::vector<double> rho(dofh.ndofs());
    for (int i = 0; i < 8; ++i) {
      be.apply(X, Y);
      ASSERT_LT(la::max_abs_diff(Y, Yref), 1e-12);
      be.overlap(X, Y, S, 2, false);
      ASSERT_LT(la::max_abs_diff(S, Sref), 1e-10);
      std::fill(rho.begin(), rho.end(), 0.0);
      be.accumulate_density(X, occ, 1.0, rho);
      for (index_t g = 0; g < dofh.ndofs(); ++g) ASSERT_NEAR(rho[g], rho_ref[g], 1e-13);
      la::Matrix<double> Xf = X;
      be.filter_block(Xf, 0, 2, 4, -0.2, 2.5, -1.1);
      for (index_t g = 0; g < Xf.size(); ++g) ASSERT_TRUE(std::isfinite(Xf.data()[g]));
    }
  });
}

TEST(RaceBackend, SubmitGuardDiagnosesCrossThreadSubmit) {
  // The driver-thread contract under TSan: while one thread's filter is in
  // flight (held open by an injected wire delay), a second thread's submit
  // must be rejected with std::logic_error under the engine mutex — no
  // job-state overwrite, no mailbox corruption — and the engine must stay
  // usable afterwards. The probe is an overlap: it performs no wire-capacity
  // setup, so it touches no lane-shared buffers before hitting the guard.
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs(), -0.4);

  dd::BackendOptions opt;
  opt.nlanes = 2;
  opt.mode = dd::EngineMode::sync;
  opt.wire = dd::Wire::fp64;
  opt.inject_wire_delay = true;
  opt.model.latency_s = 0.02;  // >= 20 ms exposed per halo packet
  dd::RankEngine<double> be(dofh, opt);
  be.set_potential(v);

  la::Matrix<double> X(dofh.ndofs(), 2), A(dofh.ndofs(), 2), S;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.41 * i);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = std::cos(0.19 * i);
  // Pre-size all lane storage at the in-flight job's degree, so neither the
  // driver's filter nor the probe performs any lane-visible setup writes.
  be.filter_block(X, 0, 2, 6, -0.2, 2.5, -1.1);

  std::atomic<bool> started{false};
  std::atomic<int> guard_throws{0};
  std::thread driver([&] {
    started.store(true, std::memory_order_release);
    be.filter_block(X, 0, 2, 6, -0.2, 2.5, -1.1);  // >= 120 ms with the delay
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  try {
    be.overlap(A, A, S, 8, false);
  } catch (const std::logic_error&) {
    guard_throws.fetch_add(1, std::memory_order_relaxed);
  }
  driver.join();
  EXPECT_EQ(guard_throws.load(), 1);

  la::Matrix<double> Y;
  be.apply(X, Y);
  for (index_t i = 0; i < Y.size(); ++i) ASSERT_TRUE(std::isfinite(Y.data()[i]));
}

TEST(RaceFlops, ConcurrentAttributedAccumulation) {
  auto& fc = FlopCounter::global();
  fc.clear();
  constexpr int kIters = 1000;
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIters; ++i) {
      if (t == 0) {
        // One thread races step attribution on/off against the others' adds;
        // attribution is global, so per-step totals are only a lower bound,
        // but the grand total must stay exact.
        ScopedFlopStep step("EP");
        fc.add(2.0);
      } else {
        fc.add(2.0);
      }
    }
  });
  EXPECT_DOUBLE_EQ(fc.total(), 2.0 * kThreads * kIters);
  EXPECT_LE(fc.step("EP"), fc.total());
  fc.clear();
}

TEST(RaceService, ConcurrentJobsAgainstSharedModel) {
  // The multi-tenant invariants under TSan: four worker threads run jobs
  // concurrently against ONE const SharedModel (mesh/DofHandler/functional
  // aliased read-only across threads), each solver owning its scratch and
  // each job scoping its telemetry with obs::JobScope. Two tenants
  // additionally run the threaded backend, so engine lanes adopting a
  // job's scope are in the TSan picture too.
  atoms::Structure parent;
  parent.atoms = {{atoms::Species::X, {1.0, 1.0, 1.0}}};
  parent.box = {7.0, 7.0, 7.0};
  parent.periodic = {true, true, true};
  core::ModelOptions mopt;
  mopt.fe_degree = 2;
  mopt.mesh_size = 3.5;
  auto model = std::make_shared<const core::SharedModel>(parent, mopt);

  svc::ServiceOptions sopt;
  sopt.workers = kThreads;
  sopt.queue_capacity = 2;  // exercise submit backpressure
  svc::JobService service(model, sopt);
  constexpr int kJobs = 6;
  for (int j = 0; j < kJobs; ++j) {
    core::JobOptions job;
    job.name = "stress_" + std::to_string(j);
    atoms::Structure st = parent;
    st.atoms[0].pos[0] = 1.0 + 0.3 * j;
    job.structure = std::move(st);
    job.scf.max_iterations = 2;  // shape over convergence: tiny under TSan
    job.scf.temperature = 0.01;
    if (j % 3 == 0) {
      job.backend.kind = dd::BackendKind::threaded;
      job.backend.nlanes = 2;
    }
    EXPECT_TRUE(service.submit(std::move(job)));
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kJobs));
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
}

}  // namespace
}  // namespace dftfe
