// Strict parsing of the numeric KGC_* environment variables.
//
// Every numeric variable follows one rule: unset or empty keeps the
// default without a word; otherwise the whole value must parse as a finite
// number of the variable's type (std::from_chars: no leading space, no '+',
// no trailing text) and lie in its range, or the program prints one
// warning on stderr and keeps the default. So "abc" cannot switch a
// facility off, "4x" does not read as 4 and "1e3" does not read as 1.
//
// Standard library only: obs is the lowest layer, and util reads its
// variables through this header too.

#ifndef KGC_OBS_ENV_H_
#define KGC_OBS_ENV_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace kgc::obs {

/// All of `text` as a T, or nullopt when it does not parse whole, is out
/// of T's range or (floating point) is not finite.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// The environment variable `name` parsed strictly (see file comment) and
/// accepted when it is at least `min`, or above `min` when `min_exclusive`.
/// Anything else prints
///   [kgc] ignoring NAME="VALUE" (expected an integer >= MIN); using FALLBACK
/// on stderr and returns `fallback`.
template <typename T>
T EnvNumber(const char* name, T fallback, T min, bool min_exclusive = false) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  const std::optional<T> value = ParseNumber<T>(text);
  if (value && (min_exclusive ? *value > min : *value >= min)) return *value;
  const auto str = [](T number) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), number).ptr);
  };
  std::fprintf(stderr,
               "[kgc] ignoring %s=\"%s\" (expected %s %s %s); using %s\n",
               name, text,
               std::is_integral_v<T> ? "an integer" : "a finite number",
               min_exclusive ? ">" : ">=", str(min).c_str(),
               str(fallback).c_str());
  return fallback;
}

}  // namespace kgc::obs

#endif  // KGC_OBS_ENV_H_
