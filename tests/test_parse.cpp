// ksr/util/parse.hpp — the one strict integer parser shared by every tool
// (ksrsim, ksrfuzz, ksrprof, ksrtop), the bench-binary BenchOptions, and
// the serve/campaign JSON decoder. The predecessors were four divergent
// strtoull wrappers, each with its own edge-case bugs (the classic: strtoull
// silently wraps "-1" to UINT64_MAX); these tests pin the shared semantics.
//
// ksr/util/flags.hpp — the one command-line policy built on it: every row
// of every flag table (BenchOptions, obs::SessionOptions, serve::JobSpec)
// parses the same in both spellings, bool rows never swallow a token, and
// bad input warns naming the flag while the default survives.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "ksr/serve/job.hpp"
#include "ksr/study/table.hpp"
#include "ksr/util/flags.hpp"
#include "ksr/util/parse.hpp"

namespace ksr::util {
namespace {

std::uint64_t u64_of(std::string_view s) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64(s, &v)) << s;
  return v;
}

std::int64_t i64_of(std::string_view s) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64(s, &v)) << s;
  return v;
}

bool u64_rejects(std::string_view s) {
  std::uint64_t v = 12345;
  const bool ok = parse_u64(s, &v);
  if (!ok) {
    EXPECT_EQ(v, 12345u) << "rejected parse must not clobber *out";
  }
  return !ok;
}

bool i64_rejects(std::string_view s) {
  std::int64_t v = 12345;
  const bool ok = parse_i64(s, &v);
  if (!ok) {
    EXPECT_EQ(v, 12345) << "rejected parse must not clobber *out";
  }
  return !ok;
}

TEST(ParseU64, AcceptsPlainAndPlusSignedDecimals) {
  EXPECT_EQ(u64_of("0"), 0u);
  EXPECT_EQ(u64_of("1"), 1u);
  EXPECT_EQ(u64_of("0042"), 42u);
  EXPECT_EQ(u64_of("+7"), 7u);
  EXPECT_EQ(u64_of("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsMalformedTokens) {
  EXPECT_TRUE(u64_rejects(""));
  EXPECT_TRUE(u64_rejects("+"));
  EXPECT_TRUE(u64_rejects(" 1"));   // strtoull would skip the space
  EXPECT_TRUE(u64_rejects("1 "));
  EXPECT_TRUE(u64_rejects("1x"));   // strtoull would stop at 'x'
  EXPECT_TRUE(u64_rejects("0x10"));
  EXPECT_TRUE(u64_rejects("1e3"));
  EXPECT_TRUE(u64_rejects("12.5"));
  EXPECT_TRUE(u64_rejects("++1"));
}

TEST(ParseU64, RejectsNegativesInsteadOfWrapping) {
  // The bug the consolidation fixes: strtoull("-1") "succeeds" and returns
  // 2^64-1, so `--procs -1` used to ask for eighteen quintillion cells.
  EXPECT_TRUE(u64_rejects("-1"));
  EXPECT_TRUE(u64_rejects("-0"));
  EXPECT_TRUE(u64_rejects("-18446744073709551615"));
}

TEST(ParseU64, RejectsOverflow) {
  EXPECT_TRUE(u64_rejects("18446744073709551616"));  // 2^64
  EXPECT_TRUE(u64_rejects("99999999999999999999"));
  EXPECT_TRUE(u64_rejects("184467440737095516150"));  // max * 10
}

TEST(ParseI64, AcceptsSignedDecimals) {
  EXPECT_EQ(i64_of("0"), 0);
  EXPECT_EQ(i64_of("-0"), 0);
  EXPECT_EQ(i64_of("-1"), -1);
  EXPECT_EQ(i64_of("+25"), 25);
  EXPECT_EQ(i64_of("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(i64_of("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(ParseI64, RejectsMalformedAndOverflow) {
  EXPECT_TRUE(i64_rejects(""));
  EXPECT_TRUE(i64_rejects("-"));
  EXPECT_TRUE(i64_rejects("+"));
  EXPECT_TRUE(i64_rejects("-+1"));
  EXPECT_TRUE(i64_rejects("1-"));
  EXPECT_TRUE(i64_rejects("9223372036854775808"));   // max + 1
  EXPECT_TRUE(i64_rejects("-9223372036854775809"));  // min - 1
}

TEST(ParseOr, FallbackKeepsDefaultAndParsesValid) {
  // The warn-and-fallback wrappers the tools use: valid tokens parse,
  // invalid ones keep the caller's default (the warning goes to stderr).
  EXPECT_EQ(to_u64_or("17", 5, "test", "field"), 17u);
  EXPECT_EQ(to_u64_or("bogus", 5, "test", "field"), 5u);
  EXPECT_EQ(to_u64_or("-3", 5, "test", "field"), 5u);
  EXPECT_EQ(to_i64_or("-17", 5, "test", "field"), -17);
  EXPECT_EQ(to_i64_or("junk", 5, "test", "field"), 5);
}

TEST(ParseU64, WorksAtCompileTime) {
  // constexpr-ness is part of the contract (table-driven tests and future
  // static configs rely on it).
  constexpr auto parsed = [] {
    std::uint64_t v = 0;
    const bool ok = parse_u64("123", &v);
    return ok ? v : 0;
  }();
  static_assert(parsed == 123);
  EXPECT_EQ(parsed, 123u);
}

// ---------------------------------------------------------------- flag rows

bool parse_args(const std::vector<Flag>& rows, std::vector<std::string> args,
                std::string* positional = nullptr) {
  std::vector<char*> argv{const_cast<char*>("tool")};
  for (std::string& a : args) argv.push_back(a.data());
  return parse_flags(static_cast<int>(argv.size()), argv.data(), 1, rows,
                     positional);
}

/// The bound variable's value, rendered for comparison.
std::string render(const Flag& f) {
  return std::visit(
      [](const auto* p) -> std::string {
        using T = std::decay_t<decltype(*p)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *p;
        } else if constexpr (std::is_same_v<T, std::vector<unsigned>>) {
          std::string s;
          for (unsigned v : *p) s += std::to_string(v) + ",";
          return s;
        } else {
          return std::to_string(*p);
        }
      },
      f.target);
}

/// Every value row of T's table lands the same value as `--k v` and as
/// `--k=v`, and the value differs from the default.
template <typename T>
void expect_both_spellings_agree() {
  T defaults;
  const std::vector<Flag> rows = defaults.flags();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Flag& row = rows[i];
    if (std::holds_alternative<bool*>(row.target) || row.optional) continue;
    const std::string v =
        std::holds_alternative<std::vector<unsigned>*>(row.target) ? "3,5"
        : std::holds_alternative<std::string*>(row.target)         ? "x.v"
                                                                   : "7";
    T spaced;
    T joined;
    const std::vector<Flag> a = spaced.flags();
    const std::vector<Flag> b = joined.flags();
    EXPECT_TRUE(parse_args(a, {"--" + row.name, v})) << row.name;
    EXPECT_TRUE(parse_args(b, {"--" + row.name + "=" + v})) << row.name;
    EXPECT_EQ(render(a[i]), render(b[i])) << row.name;
    EXPECT_NE(render(a[i]), render(row)) << row.name << " kept its default";
  }
}

TEST(Flags, EveryRowParsesTheSameInBothSpellings) {
  expect_both_spellings_agree<study::BenchOptions>();
  expect_both_spellings_agree<obs::SessionOptions>();
  expect_both_spellings_agree<serve::JobSpec>();
}

TEST(Flags, BoolRowLeavesTheNextTokenPositional) {
  // `ksrsim campaign --check manifest.json` used to read the manifest as
  // --check's value and then find no manifest.
  bool check = false;
  std::string store;
  std::string positional;
  const std::vector<Flag> rows = {{"check", &check, "audit"},
                                  {"store", &store, "DIR  store"}};
  EXPECT_TRUE(
      parse_args(rows, {"--check", "m.json", "--store", "s"}, &positional));
  EXPECT_TRUE(check);
  EXPECT_EQ(positional, "m.json");
  EXPECT_EQ(store, "s");
  // Without a positional slot the bare token is a warning, not a value.
  check = false;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_args(rows, {"--check", "m.json"}));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("'m.json'"),
            std::string::npos);
  EXPECT_TRUE(check);
}

TEST(Flags, OptionalValueOnlyAfterEquals) {
  obs::SessionOptions o;
  EXPECT_TRUE(parse_args(o.flags(), {"--trace=ring,sync"}));
  EXPECT_TRUE(o.trace);
  EXPECT_EQ(o.categories, "ring,sync");
  obs::SessionOptions bare;
  std::string positional;
  EXPECT_TRUE(parse_args(bare.flags(), {"--trace", "ring"}, &positional));
  EXPECT_TRUE(bare.trace);
  EXPECT_TRUE(bare.categories.empty());
  EXPECT_EQ(positional, "ring");
}

TEST(Flags, MalformedUintKeepsTheDefaultAndNamesTheFlag) {
  unsigned jobs = 3;
  unsigned procs = 8;
  const std::vector<Flag> rows = {{"jobs", &jobs, "N"},
                                  {"procs", &procs, "P", 1, 1088}};
  for (const char* bad : {"4x", "-1", "", "99999999999"}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse_args(rows, {"--jobs", bad})) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
    EXPECT_EQ(jobs, 3u) << bad;
  }
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_args(rows, {"--procs=0"}));  // below the row's min
  EXPECT_NE(testing::internal::GetCapturedStderr().find("[1, 1088]"),
            std::string::npos);
  EXPECT_EQ(procs, 8u);
}

TEST(Flags, UnknownFlagTakesItsBareValueWithIt) {
  bool csv = false;
  const std::vector<Flag> rows = {{"csv", &csv, "CSV"}};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_args(rows, {"--job", "4", "--csv"}));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("'--job'"), std::string::npos);
  EXPECT_EQ(err.find("'4'"), std::string::npos) << err;
  EXPECT_TRUE(csv);
}

TEST(Flags, ListRowSkipsBadEntries) {
  std::vector<unsigned> procs = {1, 2};
  const std::vector<Flag> rows = {{"procs", &procs, "P,..."}};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_args(rows, {"--procs", "1,junk,4"}));
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "skipping invalid --procs list entry 'junk'"),
            std::string::npos);
  EXPECT_EQ(procs, (std::vector<unsigned>{1, 4}));
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_args(rows, {"--procs=x,y"}));
  (void)testing::internal::GetCapturedStderr();
  EXPECT_EQ(procs, (std::vector<unsigned>{1, 4}));  // none valid: kept
}

}  // namespace
}  // namespace ksr::util
