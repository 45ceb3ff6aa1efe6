// Model-checker harness tests (tools/model_check). Two tiers:
//
//   * passthrough — the scenario bodies run on free-running threads with the
//     real std primitives, in EVERY build mode. This is the leg the TSan CI
//     job runs to prove the schedule-point seam and the scenarios are
//     race-free.
//   * controlled exploration — checking builds only (DFTFE_MODEL_CHECK=ON):
//     exhaustive schedule enumeration of the protocol scenarios, deadlock
//     self-test, and the two seeded mutants that prove the harness has
//     teeth. GTEST_SKIPped in production builds.

#include <gtest/gtest.h>

#include "dd/schedule.hpp"
#include "harness.hpp"
#include "scenarios.hpp"

#if DFTFE_MODEL_CHECK
#include "cooperative.hpp"
#endif

namespace dftfe::mc {
namespace {

namespace sc = scenarios;

TEST(ModelCheckPassthrough, AllScenariosRunCleanOnFreeThreads) {
  for (const auto& spec : sc::all_scenarios()) {
    SCOPED_TRACE(spec.scenario.name);
    ASSERT_NO_THROW(run_passthrough(spec.scenario, 25));
  }
}

#if DFTFE_MODEL_CHECK

ExploreResult explore_named(const std::string& name, int preemption_bound = -1,
                            int max_violations = 1) {
  for (const auto& spec : sc::all_scenarios()) {
    if (spec.scenario.name != name) continue;
    ExploreOptions opt;
    opt.preemption_bound =
        (preemption_bound != -1) ? preemption_bound : spec.preemption_bound;
    opt.max_schedules = spec.max_schedules;
    opt.max_seconds = spec.max_seconds;
    opt.max_violations = max_violations;
    Explorer ex;
    return ex.explore(spec.scenario, opt);
  }
  throw std::logic_error("unknown scenario: " + name);
}

/// RAII mutant selection so a failing assertion can't leak the mutant into
/// later tests.
struct MutantScope {
  explicit MutantScope(dd::sched::Mutant m) { dd::sched::set_mutant(m); }
  ~MutantScope() { dd::sched::set_mutant(dd::sched::Mutant::none); }
};

// Acceptance gate: the 2-lane sync halo exchange is explored exhaustively
// (more than one schedule), with zero violations on trunk.
TEST(ModelCheckExplore, Halo2SyncExhaustiveAndClean) {
  const ExploreResult res = explore_named("halo_sync_2");
  EXPECT_TRUE(res.complete) << "exploration did not exhaust the schedule tree";
  EXPECT_GT(res.schedules, 1) << "a single schedule means the seam never branched";
  EXPECT_TRUE(res.ok()) << res.violations.front().message
                        << "\n" << res.violations.front().trace;
  RecordProperty("schedules", static_cast<int>(res.schedules));
  RecordProperty("pruned", static_cast<int>(res.redundant));
}

TEST(ModelCheckExplore, SyncAndAsyncBodiesAgreeBitwiseAcrossAllSchedules) {
  // Both bodies assert bitwise equality against the same closed-form
  // reference inside check(), so two clean exhaustive explorations prove
  // sync ≡ async for every schedule of each.
  const ExploreResult s = explore_named("halo_sync_2");
  const ExploreResult a = explore_named("halo_async_2");
  EXPECT_TRUE(s.complete && s.ok());
  EXPECT_TRUE(a.complete && a.ok());
  EXPECT_GT(a.schedules, 1);
}

TEST(ModelCheckExplore, ProtocolEdgeScenariosClean) {
  for (const char* name :
       {"backpressure", "close_waiter", "close_racing_post", "drift_fail",
        "reset_reuse", "halo_chain_3", "allreduce_2", "allreduce_poison_3",
        "allreduce_reset_reuse_3"}) {
    SCOPED_TRACE(name);
    const ExploreResult res = explore_named(name);
    EXPECT_TRUE(res.ok()) << res.violations.front().message << "\n"
                          << res.violations.front().trace;
    EXPECT_TRUE(res.complete || res.hit_schedule_cap || res.hit_time_cap);
    EXPECT_GT(res.schedules, 1);
  }
}

TEST(ModelCheckExplore, PreemptionBoundedSweepStillBranches) {
  const ExploreResult res = explore_named("halo_chain_4", /*preemption_bound=*/2);
  EXPECT_TRUE(res.ok()) << res.violations.front().message;
  EXPECT_GT(res.schedules, 1);
}

// Teeth check 1: a genuinely broken protocol (both lanes receive before
// sending) must be reported as a deadlock, in the very first schedule.
TEST(ModelCheckExplore, DetectsRealDeadlock) {
  struct BrokenState {
    sc::Channel up, dn;
  };
  const Scenario broken = make_scenario<BrokenState>(
      "recv_before_send", "intentionally deadlocking order", 2,
      [](Registrar& reg) {
        auto st = std::make_shared<BrokenState>();
        st->up.init(dd::Wire::fp64, sc::kPlane);
        st->dn.init(dd::Wire::fp64, sc::kPlane);
        reg.channel(st->up, "ch[0->1]");
        reg.channel(st->dn, "ch[1->0]");
        return st;
      },
      [](BrokenState& st, int tid) {
        sc::Channel& out = (tid == 0) ? st.up : st.dn;
        sc::Channel& in = (tid == 0) ? st.dn : st.up;
        const int s = in.wait_packet();  // deadlock: nobody has posted yet
        in.release(s);
        sc::post_packet(out, tid, 0);
      },
      std::function<void(BrokenState&)>{});
  ExploreOptions opt;
  Explorer ex;
  const ExploreResult res = ex.explore(broken, opt);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations.front().message.find("deadlock"), std::string::npos)
      << res.violations.front().message;
}

// Teeth check 2: the seeded drop-notify mutant (a channel swallows its first
// packet-published notification) must surface as a lost-wakeup deadlock.
// Probed on the one-step exchange: in the multi-step scenarios the *next*
// publish re-wakes the parked receiver, so one dropped notify self-heals —
// the checker proving that is itself evidence it explores faithfully.
TEST(ModelCheckMutants, DroppedNotifyIsCaught) {
  const MutantScope m(dd::sched::Mutant::drop_notify);
  const ExploreResult res = explore_named("halo_sync_2_min");
  ASSERT_FALSE(res.ok()) << "checker failed to catch the dropped notify";
  EXPECT_NE(res.violations.front().message.find("deadlock"), std::string::npos)
      << res.violations.front().message;
}

// Teeth check 3: the seeded skip-gen mutant (one buffer-generation bump is
// skipped) must break the consumed-exactly-once sequence check. Unlike the
// dropped notify this is fatal in every schedule, so the full 2-step
// scenario catches it on the very first run.
TEST(ModelCheckMutants, SkippedGenerationBumpIsCaught) {
  const MutantScope m(dd::sched::Mutant::skip_gen);
  const ExploreResult res = explore_named("halo_sync_2");
  ASSERT_FALSE(res.ok()) << "checker failed to catch the skipped generation bump";
  EXPECT_NE(res.violations.front().message.find("generation"), std::string::npos)
      << res.violations.front().message;
}

// Teeth check 4: the seeded early-release mutant (the lane allreduce
// barrier opens on the second-to-last arrival) must surface as a wrong tree
// sum or a stranded lane.
TEST(ModelCheckMutants, EarlyReleaseBarrierIsCaught) {
  const MutantScope m(dd::sched::Mutant::early_release);
  const ExploreResult res = explore_named("allreduce_3");
  ASSERT_FALSE(res.ok()) << "checker failed to catch the early-release barrier";
}

#else  // !DFTFE_MODEL_CHECK

TEST(ModelCheckExplore, RequiresCheckingBuild) {
  GTEST_SKIP() << "controlled exploration needs -DDFTFE_MODEL_CHECK=ON; "
                  "passthrough coverage ran above";
}

#endif  // DFTFE_MODEL_CHECK

}  // namespace
}  // namespace dftfe::mc
