// Strict parsing of the numbers that arrive from command lines and the
// environment (thread, shard, client and rep counts, seeds, byte budgets,
// millisecond settings).
//
// strtoul-style parsing is lenient in ways that do harm here: "-1" wraps
// to 2^64-1 (a request for that many simulators), "abc" reads as 0 (the
// default, silently), and "4abc" reads as 4. parse_number accepts the
// whole string or nothing.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dyncdn::sim {

/// Parses all of `text` as a non-negative decimal number of type T, an
/// unsigned integer or a floating-point type. Returns nullopt for an empty
/// string, a sign, leading or trailing whitespace or other characters, a
/// value that does not fit T, and a non-finite floating-point value.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  if (text.empty() || text.front() == '-' || text.front() == '+') {
    return std::nullopt;
  }
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Command-line form of parse_number for the tools: on a bad value prints
/// "bad <flag> value: <text>" to stderr and returns false, leaving `out`
/// untouched.
template <typename T>
bool parse_flag(const char* flag, std::string_view text, T& out) {
  const auto v = parse_number<T>(text);
  if (!v) {
    std::fprintf(stderr, "bad %s value: %.*s\n", flag,
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  out = *v;
  return true;
}

}  // namespace dyncdn::sim
