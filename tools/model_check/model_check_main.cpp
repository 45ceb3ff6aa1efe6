// model_check: exhaustive schedule exploration of the dd concurrency
// protocol (see cooperative.hpp for the algorithm, scenarios.hpp for the
// properties). Exit codes: 0 = explored clean, 1 = invariant violation(s)
// found, 2 = usage / harness error. With --expect-violation the meaning of
// 0/1 flips (0 iff at least one violation was found) — that is how the CI
// mutant legs assert the harness has teeth without a crash masquerading as
// a pass.
//
// Usage:
//   model_check [--list] [--scenario NAME | --quick] [--mutant none|drop-notify|skip-gen|early-release]
//               [--preemption-bound K] [--max-schedules N] [--budget-seconds S]
//               [--expect-violation]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cooperative.hpp"
#include "scenarios.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--list] [--scenario NAME | --quick] [--mutant none|drop-notify|skip-gen|early-release]\n"
         "       [--preemption-bound K] [--max-schedules N] [--budget-seconds S]\n"
         "       [--expect-violation]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using dftfe::dd::sched::Mutant;
  namespace mc = dftfe::mc;

  std::string only;
  bool quick = false, list = false, expect_violation = false;
  Mutant mutant = Mutant::none;
  // Per-scenario defaults from all_scenarios(); flags override globally.
  int bound_override = -2;  // -2 = keep per-scenario default
  long max_schedules_override = -1;
  double budget_override = -1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--list") {
      list = true;
    } else if (a == "--quick") {
      quick = true;
    } else if (a == "--scenario") {
      only = next("--scenario");
    } else if (a == "--mutant") {
      const std::string m = next("--mutant");
      if (m == "none")
        mutant = Mutant::none;
      else if (m == "drop-notify")
        mutant = Mutant::drop_notify;
      else if (m == "skip-gen")
        mutant = Mutant::skip_gen;
      else if (m == "early-release")
        mutant = Mutant::early_release;
      else
        return usage(argv[0]);
    } else if (a == "--preemption-bound") {
      bound_override = std::stoi(next("--preemption-bound"));
    } else if (a == "--max-schedules") {
      max_schedules_override = std::stol(next("--max-schedules"));
    } else if (a == "--budget-seconds") {
      budget_override = std::stod(next("--budget-seconds"));
    } else if (a == "--expect-violation") {
      expect_violation = true;
    } else {
      return usage(argv[0]);
    }
  }

  const auto specs = mc::scenarios::all_scenarios();

  if (list) {
    for (const auto& s : specs)
      std::cout << s.scenario.name << (s.quick ? "  [quick]" : "") << "  — "
                << s.scenario.summary << "\n";
    return 0;
  }

  dftfe::dd::sched::set_mutant(mutant);

  long total_violations = 0;
  bool ran_any = false;
  mc::Explorer explorer;
  for (const auto& spec : specs) {
    if (!only.empty() && spec.scenario.name != only) continue;
    if (only.empty() && quick && !spec.quick) continue;
    ran_any = true;

    mc::ExploreOptions opt;
    opt.preemption_bound = (bound_override != -2) ? bound_override : spec.preemption_bound;
    opt.max_schedules =
        (max_schedules_override >= 0) ? max_schedules_override : spec.max_schedules;
    opt.max_seconds = (budget_override >= 0) ? budget_override : spec.max_seconds;

    const mc::ExploreResult res = explorer.explore(spec.scenario, opt);
    std::cout << spec.scenario.name << ": " << res.schedules << " schedules ("
              << res.redundant << " pruned, " << res.bound_blocked
              << " bound-cut), " << res.decision_points
              << " decision points, max depth " << res.max_depth << ", "
              << (res.complete ? "exhaustive"
                  : res.hit_schedule_cap
                      ? "schedule-capped"
                      : (res.hit_time_cap ? "time-capped" : "stopped on violation"))
              << (opt.preemption_bound >= 0 ? " (preemption-bounded)" : "") << "\n";
    for (const auto& v : res.violations) {
      std::cout << "  VIOLATION in schedule " << v.schedule << ": " << v.message << "\n"
                << v.trace;
      ++total_violations;
    }
  }

  if (!ran_any) {
    std::cerr << "no scenario matched"
              << (only.empty() ? "" : (" '" + only + "'")) << "\n";
    return 2;
  }
  if (expect_violation) {
    if (total_violations > 0) {
      std::cout << "expected violation found: the checker caught the seeded fault\n";
      return 0;
    }
    std::cout << "ERROR: expected a violation (seeded mutant) but exploration was clean\n";
    return 1;
  }
  return total_violations > 0 ? 1 : 0;
}
