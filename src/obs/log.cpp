#include "obs/log.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

namespace dftfe::obs {

LogLevel parse_log_level(const std::string& name, LogLevel fallback) {
  std::string s(name);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "off" || s == "none") return LogLevel::off;
  if (s == "error") return LogLevel::error;
  if (s == "warn" || s == "warning") return LogLevel::warn;
  if (s == "info") return LogLevel::info;
  if (s == "debug") return LogLevel::debug;
  if (s == "trace") return LogLevel::trace;
  return fallback;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::off: return "off";
    case LogLevel::error: return "error";
    case LogLevel::warn: return "warn";
    case LogLevel::info: return "info";
    case LogLevel::debug: return "debug";
    case LogLevel::trace: return "trace";
  }
  return "?";
}

Logger::Logger() {
  // Runs once, inside the magic-static guard of Logger::global(), before
  // any solver thread exists; the only setenv caller is a single-threaded
  // test body (tests/test_backend.cpp), so the getenv data race
  // concurrency-mt-unsafe guards against cannot occur.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("DFTFE_LOG_LEVEL"))
    level_ = parse_log_level(env, LogLevel::info);
}

void Logger::set_sink(std::ostream* sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_ = sink;
}

void Logger::write(LogLevel level, const std::string& message) {
  if (!enabled(level)) return;
  std::lock_guard<std::mutex> lk(mu_);
  std::ostream& os = sink_ ? *sink_ : std::cout;
  os << message;
  if (message.empty() || message.back() != '\n') os << '\n';
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

}  // namespace dftfe::obs
