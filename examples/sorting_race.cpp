// Sorting race: run the paper's 7-phase parallel Integer Sort (Fig. 9) at
// several processor counts, verify the ranking each time, and print the
// speedup curve — a compact end-to-end tour of the NAS IS kernel.
//
//   $ ./sorting_race [log2_keys] [log2_buckets]
#include <cstdio>
#include <stdexcept>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/study/metrics.hpp"
#include "ksr/util/parse.hpp"

int main(int argc, char** argv) try {
  using namespace ksr;  // NOLINT

  nas::IsConfig cfg;
  cfg.log2_keys = util::count_arg(argc, argv, 1, 14);
  cfg.log2_buckets = util::count_arg(argc, argv, 2, 9);

  std::printf("Parallel bucket sort of 2^%u keys into 2^%u buckets\n",
              cfg.log2_keys, cfg.log2_buckets);
  std::printf("(the seven phases of the paper's Fig. 9)\n\n");
  std::printf("%8s %12s %9s %12s %8s\n", "procs", "time (s)", "speedup",
              "serial ph4", "sorted?");

  std::vector<std::pair<unsigned, double>> measured;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 32u}) {
    machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(64));
    const nas::IsResult r = run_is(m, cfg);
    measured.emplace_back(p, r.seconds);
    const double s = measured.front().second / r.seconds;
    std::printf("%8u %12.5f %9.2f %12.6f %8s\n", p, r.seconds, s,
                r.serial_phase_seconds, r.ranks_valid ? "yes" : "NO!");
  }

  std::printf("\nKarp-Flatt serial fraction (growing => algorithmic serial\n"
              "sections + ring load, the paper's Table 2 diagnosis):\n");
  for (const auto& row : study::scaling_rows(measured)) {
    if (row.p == 1) continue;
    std::printf("  p=%2u  f=%.6f\n", row.p, row.serial_fraction);
  }
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "sorting_race: %s\n", e.what());
  return 1;
}
