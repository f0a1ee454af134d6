// Reproduces Fig. 5 ("Performance of the barriers on 64-node KSR-2"):
// the same nine barriers, on the two-level ring (two 32-cell leaf rings
// joined through ARDs by the level-1 ring), 2x CPU clock.
//
// One sweep-harness job per (barrier, P) cell, merged in submission order.
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "fig5_barriers_ksr2");
  const int episodes = opt.quick ? 5 : 20;
  print_header("Barrier performance on the 64-node KSR-2 (two-level ring)",
               "Fig. 5, Sections 3.2.4 and 4");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{16, 32, 48, 64}
                : std::vector<unsigned>{16, 20, 24, 28, 32, 36, 40, 48, 56, 64};

  std::vector<std::string> headers{"barrier \\ procs"};
  for (unsigned p : procs) headers.push_back(std::to_string(p));
  TextTable t(headers);

  const auto kinds = sync::all_barrier_kinds();
  std::vector<std::function<double(Job&)>> jobs;
  for (sync::BarrierKind kind : kinds) {
    for (unsigned p : procs) {
      jobs.emplace_back([kind, p, episodes](Job& job) {
        return barrier_episode_seconds(
            job.machine(machine::MachineConfig::ksr2(p),
                        std::string(to_string(kind)) + " p=" +
                            std::to_string(p)),
            kind, episodes);
      });
    }
  }
  const std::vector<double> cells = study.run(jobs);

  std::size_t j = 0;
  for (sync::BarrierKind kind : kinds) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (std::size_t i = 0; i < procs.size(); ++i) {
      row.push_back(TextTable::num(cells[j++] * 1e6, 1));
    }
    t.add_row(row);
  }

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
