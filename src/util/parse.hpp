#pragma once
/// \file parse.hpp
/// Strict whole-string integer parsing for CLI arguments. Unlike std::atoi /
/// std::atoll, these reject trailing garbage ("8x"), empty strings, overflow
/// and non-numeric input instead of silently returning 0 — a mistyped grid
/// dimension should print usage, not train on a 0-sized axis.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "util/logging.hpp"

namespace plexus::util {

/// Parse the *entire* string as a base-10 signed 64-bit integer. Returns
/// false (leaving `out` untouched) on empty input, leading/trailing
/// non-digits, or overflow. A single leading '-' is accepted.
inline bool parse_int64(std::string_view s, std::int64_t& out) {
  std::int64_t v = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (ec != std::errc() || ptr != last || s.empty()) return false;
  out = v;
  return true;
}

/// Same, narrowed to int. Returns false when the value does not fit.
inline bool parse_int(std::string_view s, int& out) {
  std::int64_t v = 0;
  if (!parse_int64(s, v)) return false;
  if (v < static_cast<std::int64_t>(INT32_MIN) || v > static_cast<std::int64_t>(INT32_MAX)) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// Read an integer from environment variable `var`: nullopt when it is unset
/// or empty, the value when the whole string is an integer in [lo, hi].
/// Anything else ("4x", "-1" below lo, overflow) also yields nullopt — the
/// caller's default — with the one warn-once message env_enum uses, e.g.
/// "PLEXUS_THREADS=4x not recognized (an integer in [1, 4096]); using the
/// default".
inline std::optional<int> env_int(const char* var, int lo, int hi) {
  const char* s = std::getenv(var);
  if (s == nullptr || *s == '\0') return std::nullopt;
  int v = 0;
  if (parse_int(s, v) && v >= lo && v <= hi) return v;
  warn_env_ignored(var, s,
                   "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return std::nullopt;
}

}  // namespace plexus::util
