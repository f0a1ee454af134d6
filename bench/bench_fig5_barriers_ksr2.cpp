// Reproduces Fig. 5 ("Performance of the barriers on 64-node KSR-2"):
// the same nine barriers, on the two-level ring (two 32-cell leaf rings
// joined through ARDs by the level-1 ring), 2x CPU clock.
//
// One sweep-harness job per (barrier, P) cell, merged in submission order.
#include "ksr/study/barrier_grid.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "fig5_barriers_ksr2");
  print_header("Barrier performance on the 64-node KSR-2 (two-level ring)",
               "Fig. 5, Sections 3.2.4 and 4");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{16, 32, 48, 64}
                : std::vector<unsigned>{16, 20, 24, 28, 32, 36, 40, 48, 56, 64};
  serve::JobSpec base;
  base.machine = "ksr2";
  base.iters = opt.quick ? 5 : 20;  // episodes
  const TextTable t = barrier_grid(study, base, procs, "").table;

  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\n(all entries in microseconds per barrier episode)\n"
        << "\nPaper expectations (Fig. 5 / Section 3.2.4): the same trends as"
           " the\n32-node KSR-1 carry over to the two-level ring, with a"
           " jump in\nexecution time once the barrier spans more than 32"
           " processors\n(communication crosses the ARDs);"
           " tournament(M) remains best,\nclosely followed by system and"
           " tree(M).\n";
  }
  return 0;
}
