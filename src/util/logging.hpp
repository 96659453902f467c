#pragma once
/// \file logging.hpp
/// Minimal leveled logger. Thread-safe (single global mutex), writes to stderr.
/// Verbosity is controlled globally; benches default to `Info`, tests to `Warn`.

#include <mutex>
#include <sstream>
#include <string>

namespace plexus::util {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Set the global minimum level that is emitted.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emit one log line (used by the PLEXUS_LOG macro).
void log_message(LogLevel level, const std::string& msg);

/// True the first time `key` is passed in this process, false after: gates
/// once-per-process warnings. Thread-safe.
bool first_occurrence(const std::string& key);

/// Logs one Warn per process, variable and value that an environment value
/// was ignored: "<var>=<value> not recognized (<expected>); using the
/// default". The one message every env reader (env_enum, env_int) uses.
void warn_env_ignored(const char* var, const char* value, const std::string& expected);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace plexus::util

#define PLEXUS_LOG(level) ::plexus::util::detail::LogLine(::plexus::util::LogLevel::level)
