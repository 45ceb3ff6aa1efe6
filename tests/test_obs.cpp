// Unit tests for the observability subsystem: span tracing (nesting,
// concurrency), metrics registry ordering, the Chrome-trace exporter (parsed
// back with the strict JSON parser), and the leveled logging facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "base/flops.hpp"
#include "base/timer.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dftfe {
namespace {

/// Well-formedness check through the one JSON reader.
bool json_ok(const std::string& text) {
  obs::JsonValue doc;
  return obs::json_parse(text, doc);
}

#if DFTFE_ENABLE_TRACING

TEST(TraceSpan, RecordsNestingAndParenting) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  {
    obs::TraceSpan outer("SCF-iter", "scf", rec, reg);
    {
      obs::TraceSpan inner("CF", "chfes", rec, reg);
    }
    {
      obs::TraceSpan inner("DC", "scf", rec, reg);
    }
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // Children complete (and record) before the parent.
  const auto& cf = events[0];
  const auto& dc = events[1];
  const auto& iter = events[2];
  EXPECT_EQ(cf.name, "CF");
  EXPECT_EQ(dc.name, "DC");
  EXPECT_EQ(iter.name, "SCF-iter");
  EXPECT_EQ(iter.parent, 0u);
  EXPECT_EQ(iter.depth, 0);
  EXPECT_EQ(cf.parent, iter.id);
  EXPECT_EQ(dc.parent, iter.id);
  EXPECT_EQ(cf.depth, 1);
  EXPECT_EQ(dc.depth, 1);
  // Steady-clock timestamps: children start at/after the parent and the
  // second child starts after the first ends.
  EXPECT_GE(cf.ts_us, iter.ts_us);
  EXPECT_GE(dc.ts_us, cf.ts_us + cf.dur_us - 1.0);
  // Spans also feed the aggregate profile registry.
  EXPECT_EQ(reg.find("CF")->count, 1);
  EXPECT_EQ(reg.find("SCF-iter")->count, 1);
}

TEST(TraceSpan, StopEndsTheSpanEarlyAndIsIdempotent) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  {
    obs::TraceSpan span("adjoint", "invdft", rec, reg);
    span.stop();
    span.stop();  // destructor must not double-record either
  }
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(reg.find("adjoint")->count, 1);
}

TEST(TraceRecorder, ConcurrentSpansFromManyThreads) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  constexpr int kThreads = 8, kSpans = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&rec, &reg] {
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan outer("outer", "test", rec, reg);
        obs::TraceSpan inner("inner", "test", rec, reg);
      }
    });
  for (auto& th : pool) th.join();
  const auto events = rec.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(2 * kThreads * kSpans));
  EXPECT_EQ(reg.find("outer")->count, kThreads * kSpans);
  EXPECT_EQ(reg.find("inner")->count, kThreads * kSpans);
  // Per-thread parenting survived concurrency: every inner span's parent is
  // an outer span recorded by the same thread.
  std::map<std::uint64_t, std::uint32_t> outer_tid;
  for (const auto& ev : events)
    if (ev.name == "outer") outer_tid[ev.id] = ev.tid;
  for (const auto& ev : events)
    if (ev.name == "inner") {
      auto it = outer_tid.find(ev.parent);
      ASSERT_NE(it, outer_tid.end());
      EXPECT_EQ(it->second, ev.tid);
      EXPECT_EQ(ev.depth, 1);
    }
}

TEST(TraceRecorder, CapacityBoundsRetainedEvents) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  rec.set_capacity(5);
  for (int i = 0; i < 9; ++i) obs::TraceSpan span("s", "test", rec, reg);
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 4u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, DisabledRecorderCapturesNothing) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  rec.set_enabled(false);
  { obs::TraceSpan span("s", "test", rec, reg); }
  EXPECT_EQ(rec.size(), 0u);
  // The aggregate profile still accumulates (that is the OFF-mode contract).
  EXPECT_EQ(reg.find("s")->count, 1);
}

TEST(ChromeTrace, ExportIsWellFormedJsonWithEscapedNames) {
  obs::TraceRecorder rec;
  ProfileRegistry reg;
  {
    obs::TraceSpan outer("SCF", "scf", rec, reg);
    obs::TraceSpan weird("na\"me\nwith\tescapes\\", "cat\"egory", rec, reg);
  }
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(json_ok(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("na\\\"me\\nwith\\tescapes\\\\"), std::string::npos);
}

#endif  // DFTFE_ENABLE_TRACING

TEST(Metrics, SeriesPreservesAppendOrder) {
  obs::MetricsRegistry m;
  const std::vector<double> residuals = {1.0, 0.3, 0.09, 0.011, 0.0005};
  for (double r : residuals) m.series_append("scf.residual", r);
  EXPECT_EQ(m.series("scf.residual"), residuals);
  EXPECT_TRUE(m.series("missing").empty());
}

TEST(Metrics, CountersAccumulateAndGaugesOverwrite) {
  obs::MetricsRegistry m;
  m.counter_add("poisson.solves", 1.0);
  m.counter_add("poisson.solves", 2.0);
  m.gauge_set("chfes.cheb_degree", 15.0);
  m.gauge_set("chfes.cheb_degree", 20.0);
  EXPECT_DOUBLE_EQ(m.counter("poisson.solves"), 3.0);
  EXPECT_DOUBLE_EQ(m.gauge("chfes.cheb_degree"), 20.0);
  EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  m.clear();
  EXPECT_DOUBLE_EQ(m.counter("poisson.solves"), 0.0);
}

TEST(Metrics, ConcurrentRecordingIsConsistent) {
  obs::MetricsRegistry m;
  constexpr int kThreads = 8, kOps = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&m, t] {
      for (int i = 0; i < kOps; ++i) {
        m.counter_add("ops", 1.0);
        m.series_append("per_thread." + std::to_string(t), i);
      }
    });
  for (auto& th : pool) th.join();
  EXPECT_DOUBLE_EQ(m.counter("ops"), kThreads * kOps);
  for (int t = 0; t < kThreads; ++t) {
    const auto s = m.series("per_thread." + std::to_string(t));
    ASSERT_EQ(s.size(), static_cast<std::size_t>(kOps));
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));  // per-thread order kept
  }
}

TEST(JsonValidator, AcceptsValidRejectsMalformed) {
  EXPECT_TRUE(json_ok("{}"));
  EXPECT_TRUE(json_ok("[1,2.5,-3e+7,\"x\",true,false,null]"));
  EXPECT_TRUE(json_ok("  {\"a\":{\"b\":[{}]}}  "));
  EXPECT_TRUE(json_ok("\"esc \\\" \\n \\u00e9\""));
  EXPECT_FALSE(json_ok(""));
  EXPECT_FALSE(json_ok("{"));
  EXPECT_FALSE(json_ok("{\"a\":1,}"));
  EXPECT_FALSE(json_ok("[1 2]"));
  EXPECT_FALSE(json_ok("{\"a\" 1}"));
  EXPECT_FALSE(json_ok("01"));
  EXPECT_FALSE(json_ok("nan"));
  EXPECT_FALSE(json_ok("{} extra"));
  EXPECT_FALSE(json_ok("\"unterminated"));
  // The depth cap rejects pathological nesting instead of overflowing.
  EXPECT_TRUE(json_ok(std::string(200, '[') + std::string(200, ']')));
  EXPECT_FALSE(json_ok(std::string(300, '[') + std::string(300, ']')));
}

TEST(StepBreakdown, TableCoversCanonicalStepsAndRemainder) {
  ProfileRegistry reg;
  FlopCounter fc;
  reg.add("CF", 2.0);
  reg.add("RR-D", 0.1);
  fc.set_step("CF");
  fc.add(4e9);
  fc.set_step("");
  std::ostringstream os;
  obs::step_breakdown_table(3.0, {}, reg, fc).print(os);
  const std::string table = os.str();
  for (const auto& step : obs::canonical_steps())
    EXPECT_NE(table.find(step.name), std::string::npos) << step.name;
  EXPECT_NE(table.find("DH+EP+Others"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  // 3.0s total - 2.1s accounted = 0.9s remainder; CF rate = 4GF/2s = 2 GFLOPS.
  EXPECT_NE(table.find("0.900"), std::string::npos);
  EXPECT_NE(table.find("2.00"), std::string::npos);
}

TEST(Logging, LevelFilteringAndSinkRedirect) {
  auto& logger = obs::Logger::global();
  const obs::LogLevel saved = logger.level();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(obs::LogLevel::warn);
  DFTFE_LOG(error) << "an error";
  DFTFE_LOG(warn) << "a warning";
  DFTFE_LOG(info) << "unseen info";
  DFTFE_LOG(debug) << "unseen debug";
  logger.set_level(obs::LogLevel::trace);
  DFTFE_LOG(trace) << "now visible trace";
  logger.set_sink(nullptr);
  logger.set_level(saved);
  const std::string out = sink.str();
  EXPECT_NE(out.find("an error"), std::string::npos);
  EXPECT_NE(out.find("a warning"), std::string::npos);
  EXPECT_EQ(out.find("unseen"), std::string::npos);
  EXPECT_NE(out.find("now visible trace"), std::string::npos);
}

TEST(Logging, DisabledLevelSkipsOperandEvaluation) {
  auto& logger = obs::Logger::global();
  const obs::LogLevel saved = logger.level();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(obs::LogLevel::warn);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  DFTFE_LOG(debug) << "value " << expensive();
  EXPECT_EQ(evaluations, 0);  // the macro's guard short-circuits formatting
  DFTFE_LOG(warn) << "value " << expensive();
  EXPECT_EQ(evaluations, 1);
  logger.set_sink(nullptr);
  logger.set_level(saved);
}

TEST(Logging, VerboseFlagMapsToLevels) {
  EXPECT_EQ(obs::level_for(true), obs::LogLevel::info);
  EXPECT_EQ(obs::level_for(false), obs::LogLevel::trace);
  EXPECT_EQ(obs::parse_log_level("DEBUG"), obs::LogLevel::debug);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::off);
  EXPECT_EQ(obs::parse_log_level("bogus", obs::LogLevel::warn), obs::LogLevel::warn);
}

TEST(FlopCounter, AccumulatesFractionalContributions) {
  FlopCounter c;
  for (int i = 0; i < 8; ++i) c.add(0.25);  // int64 truncation would keep 0
  EXPECT_DOUBLE_EQ(c.total(), 2.0);
}

TEST(ProfileRegistry, ConcurrentAddsFromParallelSections) {
  ProfileRegistry reg;
  constexpr int kThreads = 8, kAdds = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&reg] {
      for (int i = 0; i < kAdds; ++i) reg.add("section", 0.001);
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(reg.find("section")->count, kThreads * kAdds);
  EXPECT_NEAR(reg.seconds("section"), kThreads * kAdds * 0.001, 1e-9);
}

}  // namespace
}  // namespace dftfe
