#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ksr/util/parse.hpp"

// The one command-line parser every tool and bench binary shares. A tool
// declares its knobs as rows — name, bound variable, one-line help — and
// parse_flags() applies one policy to all of them:
//
//   * a value flag accepts both `--k v` and `--k=v`;
//   * a bool flag never consumes the next token;
//   * an optional-value flag (`--trace[=cats]`) takes its value only after
//     '=';
//   * integers go through parse_u64 and the row's inclusive [min, max];
//   * an unknown flag or a malformed value prints one warning naming the
//     flag and leaves the bound variable at its default. An unknown flag
//     takes its bare value with it, so `--job 4` leaves no stray "4".
//
// parse_flags() returns false if it printed anything: fail-soft tools (the
// bench binaries, ksrsim) carry on with the defaults, strict ones (ksrfuzz,
// ksrprof, ksrtop) print their usage instead.
namespace ksr::util {

struct Flag {
  /// The bound variable; its type is the flag's kind: bool, uint, u64,
  /// string, or a comma-separated uint list.
  using Target = std::variant<bool*, unsigned*, std::uint64_t*, std::string*,
                              std::vector<unsigned>*>;

  std::string name;  // spelled without the leading "--"
  Target target;
  std::string help;  // one line; a value flag's starts with its metavariable
  std::uint64_t min = 0;  // integer and list-entry bounds, inclusive
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  bool* seen = nullptr;    // also set whenever the flag appears
  bool optional = false;   // string: the value only as `--name=value`
  bool bool_value = true;  // what a bool flag stores (false for `--no-x`)
};

namespace detail {

inline void warn(bool* clean, const std::string& msg) {
  std::fprintf(stderr, "warning: %s\n", msg.c_str());
  *clean = false;
}

/// `tok` as an integer within the row's bounds and the target type's `cap`;
/// warns `what` on failure.
inline bool bounded(const Flag& f, std::string_view tok, std::uint64_t cap,
                    const std::string& what, std::uint64_t* out,
                    bool* clean) {
  const std::uint64_t hi = std::min(f.max, cap);
  if (parse_u64(tok, out) && *out >= f.min && *out <= hi) return true;
  warn(clean, what + " '" + std::string(tok) + "' (expected " +
                  (f.min == 0 && hi == cap
                       ? std::string("a non-negative integer")
                       : "an integer in [" + std::to_string(f.min) + ", " +
                             std::to_string(hi) + "]") +
                  ")");
  return false;
}

inline void assign(const Flag& f, std::string_view v, bool* clean) {
  const std::string invalid = "ignoring invalid --" + f.name + " value";
  std::uint64_t u = 0;
  if (auto* p = std::get_if<unsigned*>(&f.target)) {
    if (bounded(f, v, std::numeric_limits<unsigned>::max(), invalid, &u,
                clean)) {
      **p = static_cast<unsigned>(u);
    }
  } else if (auto* q = std::get_if<std::uint64_t*>(&f.target)) {
    if (bounded(f, v, std::numeric_limits<std::uint64_t>::max(), invalid, &u,
                clean)) {
      **q = u;
    }
  } else if (auto* s = std::get_if<std::string*>(&f.target)) {
    **s = v;
  } else if (auto* l = std::get_if<std::vector<unsigned>*>(&f.target)) {
    std::vector<unsigned> out;
    const std::string skip = "skipping invalid --" + f.name + " list entry";
    for (std::size_t at = 0; at <= v.size();) {
      const std::size_t comma = std::min(v.find(',', at), v.size());
      if (bounded(f, v.substr(at, comma - at),
                  std::numeric_limits<unsigned>::max(), skip, &u, clean)) {
        out.push_back(static_cast<unsigned>(u));
      }
      at = comma + 1;
    }
    if (out.empty()) {
      warn(clean, "--" + f.name + " has no valid entries; using the default");
    } else {
      **l = std::move(out);
    }
  }
}

}  // namespace detail

/// Parse argv[first, argc) against `rows`. The first bare token goes to
/// `*positional` when the caller takes one; any other bare token warns.
/// Returns false if any warning was printed.
inline bool parse_flags(int argc, char** argv, int first,
                        const std::vector<Flag>& rows,
                        std::string* positional = nullptr) {
  bool clean = true;
  auto is_flag = [](std::string_view t) { return t.substr(0, 2) == "--"; };
  for (int i = first; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (!is_flag(a)) {
      if (positional != nullptr && positional->empty()) {
        *positional = a;
      } else {
        detail::warn(&clean,
                     "ignoring unknown argument '" + std::string(a) + "'");
      }
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string name(a.substr(2, eq == a.npos ? a.npos : eq - 2));
    const bool has_value = eq != a.npos;
    std::string_view value = has_value ? a.substr(eq + 1) : "";
    const auto f = std::find_if(rows.begin(), rows.end(),
                                [&](const Flag& r) { return r.name == name; });
    if (f == rows.end()) {
      detail::warn(&clean, "ignoring unknown argument '--" + name + "'");
      if (!has_value && i + 1 < argc && !is_flag(argv[i + 1])) ++i;
      continue;
    }
    if (f->seen != nullptr) *f->seen = true;
    if (auto* b = std::get_if<bool*>(&f->target)) {
      if (has_value) {
        detail::warn(&clean, "ignoring '" + std::string(a) + "' (--" + name +
                                 " takes no value)");
      } else {
        **b = f->bool_value;
      }
      continue;
    }
    if (!has_value) {
      if (f->optional) continue;
      if (i + 1 >= argc) {
        detail::warn(&clean, "--" + name + " needs a value");
        continue;
      }
      value = argv[++i];
    }
    detail::assign(*f, value, &clean);
  }
  return clean;
}

/// Usage text: one "  --name  help" line per row, help in one column.
[[nodiscard]] inline std::string flag_help(const std::vector<Flag>& rows) {
  std::size_t width = 0;
  for (const Flag& f : rows) width = std::max(width, f.name.size());
  std::string out;
  for (const Flag& f : rows) {
    out += "  --" + f.name + std::string(width - f.name.size() + 2, ' ') +
           f.help + "\n";
  }
  return out;
}

}  // namespace ksr::util
