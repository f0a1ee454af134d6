// Reproduces the cross-architecture comparison of Section 3.2.3: the same
// barrier algorithms on a bus-based Symmetry-like machine (everything
// serializes; the naive counter is competitive and MCS(M) beats
// tournament(M)) and on a Butterfly-like machine (parallel paths but no
// coherent caches; dissemination wins and global-flag spinning hammers one
// memory module).
#include "ksr/study/barrier_grid.hpp"

namespace {

using namespace ksr;         // NOLINT
using namespace ksr::study;  // NOLINT

void compare(Study& study, const std::string& tag, const std::string& title,
             const std::string& machine, const std::vector<unsigned>& procs,
             unsigned episodes, bool csv) {
  serve::JobSpec base;
  base.machine = machine;
  base.iters = episodes;
  const TextTable t = barrier_grid(study, base, procs, tag + " ").table;
  std::cout << "\n--- " << title << " ---\n";
  if (csv) {
    t.print_csv();
  } else {
    t.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "sec323_arch_compare");
  const unsigned episodes = opt.quick ? 5 : 20;
  print_header("Barriers across architectures: Symmetry bus & Butterfly MIN",
               "Section 3.2.3");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{4, 16} : std::vector<unsigned>{4, 8, 12, 16};

  compare(study, "bus", "Sequent Symmetry model (single snooping bus)",
          "symmetry", procs, episodes, opt.csv);
  std::cout
      << "Expected (paper): the bus serializes all communication, so the\n"
         "parallel-path algorithms lose their edge; counter is competitive\n"
         "(best on the real Symmetry) and MCS(M) beats tournament(M) since\n"
         "the 4-ary arrival tree halves the critical path at no extra cost\n"
         "when everything serializes anyway.\n";

  const std::vector<unsigned> bprocs =
      opt.quick ? std::vector<unsigned>{8, 32}
                : std::vector<unsigned>{8, 16, 24, 32};
  compare(study, "butterfly",
          "BBN Butterfly model (multistage network, no coherent caches)",
          "butterfly", bprocs, episodes, opt.csv);
  std::cout
      << "Expected (paper): with no caches, every spin poll crosses the\n"
         "network: global-wakeup-flag variants and the counter hammer a\n"
         "single home module, while dissemination — whose flags live in\n"
         "each spinner's own module — wins, followed by tournament, then\n"
         "MCS (log4 P + log2 P rounds).\n";
  return 0;
}
