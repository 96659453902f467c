#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <set>

namespace plexus::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Info};
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void log_message(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[plexus %s] %s\n", level_name(level), msg.c_str());
}

bool first_occurrence(const std::string& key) {
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lock(g_mutex);
  return seen.insert(key).second;
}

void warn_env_ignored(const char* var, const char* value, const std::string& expected) {
  if (!first_occurrence(std::string(var) + "=" + value)) return;
  PLEXUS_LOG(Warn) << var << "=" << value << " not recognized (" << expected
                   << "); using the default";
}

}  // namespace plexus::util
