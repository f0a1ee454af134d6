#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

// The one integer-token parser every tool shares.
//
// ksrsim, ksrfuzz, ksrprof and ksrtop each grew their own strtoull
// warn-and-fallback copy, and the copies drifted: some rejected trailing
// junk, some missed ERANGE, and all of them inherited strtoull's little
// trap of accepting a leading '-' on an *unsigned* conversion and silently
// wrapping it ("-1" parsed as 18446744073709551615). These routines are the
// single strict implementation — base-10 only, no whitespace, no sign
// wrap-around, overflow checked — so an edge-case fix lands everywhere at
// once. The warn-and-fallback wrappers reproduce the tools' shared
// diagnostic pattern on top.
namespace ksr::util {

/// Strict base-10 parse of a non-negative integer token. Accepts an
/// optional leading '+'. Returns false (and leaves *out untouched) on an
/// empty token, any non-digit byte (including leading whitespace, a minus
/// sign, hex prefixes and trailing junk) and on overflow past 2^64-1.
[[nodiscard]] constexpr bool parse_u64(std::string_view s,
                                       std::uint64_t* out) noexcept {
  std::size_t i = 0;
  if (i < s.size() && s[i] == '+') ++i;
  if (i >= s.size()) return false;
  std::uint64_t v = 0;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
      return false;
    }
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

/// Strict base-10 parse of a signed integer token ('+'/'-' prefix allowed).
/// Same rejection rules as parse_u64, with INT64_MIN/INT64_MAX bounds.
[[nodiscard]] constexpr bool parse_i64(std::string_view s,
                                       std::int64_t* out) noexcept {
  bool neg = false;
  if (!s.empty() && (s[0] == '+' || s[0] == '-')) {
    neg = s[0] == '-';
    s.remove_prefix(1);
  }
  std::uint64_t mag = 0;
  if (!parse_u64(s, &mag) || (!s.empty() && s[0] == '+')) return false;
  const std::uint64_t limit =
      neg ? static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()) +
                1
          : static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max());
  if (mag > limit) return false;
  *out = neg ? -static_cast<std::int64_t>(mag - 1) - 1
             : static_cast<std::int64_t>(mag);
  return true;
}

/// Warn-and-fallback wrapper (the ksrprof pattern): a malformed token warns
/// on stderr — naming the tool and what the field is — and parses as `def`
/// instead of silently truncating at the first bad byte.
[[nodiscard]] inline std::uint64_t to_u64_or(std::string_view s,
                                             std::uint64_t def,
                                             const char* tool,
                                             const char* what) {
  std::uint64_t v = 0;
  if (parse_u64(s, &v)) return v;
  std::fprintf(stderr, "%s: warning: invalid %s '%.*s'; using %llu\n", tool,
               what, static_cast<int>(s.size()), s.data(),
               static_cast<unsigned long long>(def));
  return def;
}

[[nodiscard]] inline std::int64_t to_i64_or(std::string_view s,
                                            std::int64_t def,
                                            const char* tool,
                                            const char* what) {
  std::int64_t v = 0;
  if (parse_i64(s, &v)) return v;
  std::fprintf(stderr, "%s: warning: invalid %s '%.*s'; using %lld\n", tool,
               what, static_cast<int>(s.size()), s.data(),
               static_cast<long long>(def));
  return def;
}

/// argv[i] as a positive count, or `fallback` when argv has no entry i: the
/// positional-argument parser of the examples. Throws std::invalid_argument
/// naming the token when it is not a count in [1, INT32_MAX].
[[nodiscard]] inline unsigned count_arg(int argc, char** argv, int i,
                                        unsigned fallback) {
  std::uint64_t v = fallback;
  if (argc > i && (!parse_u64(argv[i], &v) || v == 0 ||
                   v > std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument(std::string("not a positive count: '") +
                                argv[i] + "'");
  }
  return static_cast<unsigned>(v);
}

}  // namespace ksr::util
