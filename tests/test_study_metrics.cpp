// Unit tests for the scalability metrics (speedup, efficiency, Karp-Flatt
// serial fraction, superunitary detection) — validated against the actual
// numbers printed in the paper's Tables 1 and 2.
#include <gtest/gtest.h>

#include <sstream>

#include "ksr/study/metrics.hpp"
#include "ksr/study/table.hpp"

namespace ksr::study {
namespace {

TEST(Metrics, SpeedupAndEfficiency) {
  EXPECT_DOUBLE_EQ(speedup(100.0, 25.0), 4.0);
  EXPECT_DOUBLE_EQ(efficiency(100.0, 25.0, 8), 0.5);
  EXPECT_DOUBLE_EQ(speedup(100.0, 0.0), 0.0);  // degenerate guarded
}

// Check Karp-Flatt against the paper's own Table 1 (CG) rows.
TEST(Metrics, KarpFlattMatchesPaperTable1) {
  // P=2: speedup 1.76131 -> f = 0.135518
  EXPECT_NEAR(karp_flatt(1.76131, 2), 0.135518, 1e-5);
  // P=8: speedup 6.31418 -> f = 0.038141
  EXPECT_NEAR(karp_flatt(6.31418, 8), 0.038141, 1e-5);
  // P=32: speedup 22.75930 -> f = 0.013097
  EXPECT_NEAR(karp_flatt(22.75930, 32), 0.013097, 1e-5);
}

// And against Table 2 (IS).
TEST(Metrics, KarpFlattMatchesPaperTable2) {
  EXPECT_NEAR(karp_flatt(1.97401, 2), 0.013166, 1e-5);
  EXPECT_NEAR(karp_flatt(12.64320, 16), 0.017700, 1e-5);
  EXPECT_NEAR(karp_flatt(18.91550, 32), 0.022314, 1e-5);
}

TEST(Metrics, ScalingRowsDeriveAllColumns) {
  const auto rows = scaling_rows({{1, 100.0}, {2, 60.0}, {4, 30.0}});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].speedup, 1.0);
  EXPECT_NEAR(rows[1].speedup, 1.6667, 1e-3);
  EXPECT_NEAR(rows[2].efficiency, 100.0 / 30.0 / 4.0, 1e-9);
  EXPECT_GT(rows[1].serial_fraction, 0.0);
}

TEST(Metrics, SuperunitaryStepDetection) {
  // Paper: 4 -> 8 processors CG speedup 2.8995 -> 6.31418: the incremental
  // speedup (2.18x) exceeds the processor ratio (2x): superunitary.
  EXPECT_TRUE(superunitary_step(2.89950, 4, 6.31418, 8));
  // 16 -> 32 is NOT superunitary (12.9534 -> 22.7593 < 2x).
  EXPECT_FALSE(superunitary_step(12.95340, 16, 22.75930, 32));
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4  |"), std::string::npos);
}

TEST(TextTable, CsvEscapeFreePath) {
  TextTable t({"p", "s"});
  t.add_row({"1", "2.5"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "p,s\n1,2.5\n");
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::sci(12345.678, 2), "1.23e+04");
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"prog", "--csv", "--quick"};
  const auto o = BenchOptions::parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(o.csv);
  EXPECT_TRUE(o.quick);
  // Unset, --sim-threads is the build's engine default, so a bench runs
  // the same engine whether or not it passes the flag.
  EXPECT_EQ(o.sim_threads, machine::MachineConfig{}.sim_threads);
}

// --full is fig3's own row now; a shared option a binary would silently
// ignore is an unknown flag everywhere else.
TEST(BenchOptions, FullIsNotASharedFlag) {
  const char* argv[] = {"prog", "--full", "--csv"};
  testing::internal::CaptureStderr();
  const auto o = BenchOptions::parse(3, const_cast<char**>(argv));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(o.csv);
  EXPECT_NE(err.find("ignoring unknown argument '--full'"), std::string::npos);
}

}  // namespace
}  // namespace ksr::study
