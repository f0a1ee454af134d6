// Reproduces Fig. 4 ("Performance of the barriers on 32-node KSR-1"):
// mean barrier episode time for the nine algorithms, P = 2..32.
//
// Each (barrier, P) cell is an independent simulation — one sweep-harness
// job per cell, merged in submission order so the table is bit-identical for
// any --jobs value.
#include <algorithm>

#include "ksr/study/barrier_grid.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "fig4_barriers_ksr1");
  print_header("Barrier performance on the 32-node KSR-1",
               "Fig. 4, Section 3.2.2");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{4, 16, 32}
                : std::vector<unsigned>{2, 4, 8, 12, 16, 20, 24, 28, 32};
  serve::JobSpec base;
  base.iters = opt.quick ? 5 : 20;  // episodes
  const BarrierGrid grid = barrier_grid(study, base, procs, "");

  // Seconds per episode of `kind` in the last column, P = 32.
  const auto kinds = sync::all_barrier_kinds();
  auto at32 = [&](sync::BarrierKind kind) {
    const auto k = std::find(kinds.begin(), kinds.end(), kind) - kinds.begin();
    return grid.seconds[static_cast<std::size_t>(k + 1) * procs.size() - 1];
  };

  if (opt.csv) {
    grid.table.print_csv();
  } else {
    grid.table.print();
    std::cout << "\n(all entries in microseconds per barrier episode)\n"
              << "\nPaper expectations (Fig. 4): counter worst and growing"
                 " steeply;\ntree > dissemination > tournament ~ MCS; the"
                 " global-wakeup-flag (M)\nvariants much flatter, with"
                 " tournament(M) best overall.\n";
    std::cout << "Measured at P=32: counter/tournament(M) ratio = "
              << TextTable::num(at32(sync::BarrierKind::kCounter) /
                                    at32(sync::BarrierKind::kTournamentM),
                                1)
              << "x\n";
  }
  return 0;
}
