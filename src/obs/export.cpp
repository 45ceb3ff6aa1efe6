#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.hpp"

namespace dftfe::obs {

const std::vector<CanonicalStep>& canonical_steps() {
  static const std::vector<CanonicalStep> steps = {
      {"CF", false},       {"CholGS-S", false}, {"CholGS-CI", true},
      {"CholGS-O", false}, {"RR-P", false},     {"RR-D", true},
      {"RR-SR", false},    {"DC", false},
  };
  return steps;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string chrome_trace_json(const TraceRecorder& rec) {
  const auto events = rec.events();
  // Lane-tagged spans render one row per slab-rank lane: the lane id becomes
  // the Chrome tid. Untagged (driver/main) spans keep their OS-thread ids,
  // offset past any plausible lane count so the two namespaces never collide.
  constexpr std::uint32_t kThreadTidBase = 1000;
  auto row_tid = [&](const TraceEvent& ev) -> std::uint32_t {
    return ev.lane >= 0 ? static_cast<std::uint32_t>(ev.lane) : kThreadTidBase + ev.tid;
  };
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"dftfe-mlxc\",\"dropped\":"
     << rec.dropped() << "},\"traceEvents\":[";
  bool first = true;
  // thread_name metadata events so the per-lane rows are labeled in
  // chrome://tracing / Perfetto.
  std::map<std::uint32_t, std::string> row_names;
  for (const auto& ev : events) {
    const std::uint32_t tid = row_tid(ev);
    if (row_names.count(tid)) continue;
    row_names[tid] = ev.lane >= 0 ? "lane " + std::to_string(ev.lane)
                                  : "thread " + std::to_string(ev.tid);
  }
  for (const auto& [tid, name] : row_names) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& ev : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\"" << json_escape(ev.category)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << row_tid(ev) << ",\"ts\":" << json_num(ev.ts_us)
       << ",\"dur\":" << json_num(ev.dur_us) << ",\"args\":{\"id\":" << ev.id
       << ",\"parent\":" << ev.parent << ",\"depth\":" << ev.depth << ",\"thread\":" << ev.tid;
    if (ev.lane >= 0) os << ",\"lane\":" << ev.lane;
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool write_chrome_trace(const std::string& path, const TraceRecorder& rec) {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json(rec) << '\n';
  return static_cast<bool>(f);
}

TextTable step_breakdown_table(double total_wall, const std::vector<PeakColumn>& peaks,
                               const ProfileRegistry& profile, const FlopCounter& flops) {
  std::vector<std::string> header = {"step", "wall (s)", "GFLOP", "GFLOPS"};
  for (const PeakColumn& p : peaks) header.push_back(p.header);
  TextTable t(header);
  // One cell per peak column: the rate's share of that peak, or `blank`.
  auto add_pcts = [&](std::vector<std::string>& row, double gflops, bool blank) {
    for (const PeakColumn& p : peaks)
      row.push_back(blank ? "-" : TextTable::num(100.0 * gflops / p.gflops, 1) + "%");
  };
  double accounted = 0.0, gflop_total = 0.0;
  for (const auto& step : canonical_steps()) {
    const double wall = profile.seconds(step.name);
    const double gf = flops.step(step.name) / 1e9;
    accounted += wall;
    if (!step.minor) gflop_total += gf;
    const double rate = gf / std::max(wall, 1e-9);
    std::vector<std::string> row = {step.name, TextTable::num(wall, 3),
                                    step.minor ? "-" : TextTable::num(gf, 2),
                                    step.minor ? "-" : TextTable::num(rate, 2)};
    add_pcts(row, rate, step.minor);
    t.add_row(std::move(row));
  }
  const double others = std::max(total_wall - accounted, 0.0);
  {
    std::vector<std::string> row = {"DH+EP+Others", TextTable::num(others, 3), "-", "-"};
    add_pcts(row, 0.0, true);
    t.add_row(std::move(row));
  }
  {
    const double rate = gflop_total / std::max(total_wall, 1e-9);
    std::vector<std::string> row = {"TOTAL", TextTable::num(total_wall, 3),
                                    TextTable::num(gflop_total, 2), TextTable::num(rate, 2)};
    add_pcts(row, rate, false);
    t.add_row(std::move(row));
  }
  return t;
}

TextTable lane_breakdown_table(const TraceRecorder& rec) {
  const auto events = rec.events();
  int nlanes = 0;
  for (const auto& ev : events) nlanes = std::max(nlanes, ev.lane + 1);
  // Aggregate by (name, lane), keeping first-seen name order for the rows.
  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> seconds;
  for (const auto& ev : events) {
    if (ev.lane < 0) continue;
    auto it = seconds.find(ev.name);
    if (it == seconds.end()) {
      names.push_back(ev.name);
      it = seconds.emplace(ev.name, std::vector<double>(nlanes, 0.0)).first;
    }
    it->second[static_cast<std::size_t>(ev.lane)] += ev.dur_us * 1e-6;
  }
  std::vector<std::string> header = {"span"};
  for (int r = 0; r < nlanes; ++r) header.push_back("lane " + std::to_string(r) + " (s)");
  TextTable t(header);
  for (const auto& name : names) {
    std::vector<std::string> row = {name};
    for (int r = 0; r < nlanes; ++r)
      row.push_back(TextTable::num(seconds[name][static_cast<std::size_t>(r)], 3));
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace dftfe::obs
