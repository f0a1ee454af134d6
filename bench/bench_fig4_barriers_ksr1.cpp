// Reproduces Fig. 4 ("Performance of the barriers on 32-node KSR-1"):
// mean barrier episode time for the nine algorithms, P = 2..32.
//
// Each (barrier, P) cell is an independent simulation — one sweep-harness
// job per cell, merged in submission order so the table is bit-identical for
// any --jobs value.
#include "ksr/study/sweep.hpp"
#include "ksr/sync/barrier.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "fig4_barriers_ksr1");
  const int episodes = opt.quick ? 5 : 20;
  print_header("Barrier performance on the 32-node KSR-1",
               "Fig. 4, Section 3.2.2");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{4, 16, 32}
                : std::vector<unsigned>{2, 4, 8, 12, 16, 20, 24, 28, 32};

  std::vector<std::string> headers{"barrier \\ procs"};
  for (unsigned p : procs) headers.push_back(std::to_string(p));
  TextTable t(headers);

  const auto kinds = sync::all_barrier_kinds();
  std::vector<std::function<double(Job&)>> jobs;
  for (sync::BarrierKind kind : kinds) {
    for (unsigned p : procs) {
      jobs.emplace_back([kind, p, episodes](Job& job) {
        return sync::barrier_episode_seconds(
            job.machine(machine::MachineConfig::ksr1(p),
                        std::string(to_string(kind)) + " p=" +
                            std::to_string(p)),
            kind, episodes);
      });
    }
  }
  const std::vector<double> cells = study.run(jobs);

  double counter32 = 0, tournament_m32 = 0;
  std::size_t j = 0;
  for (sync::BarrierKind kind : kinds) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (unsigned p : procs) {
      const double seconds = cells[j++];
      if (p == 32 && kind == sync::BarrierKind::kCounter) counter32 = seconds;
      if (p == 32 && kind == sync::BarrierKind::kTournamentM) {
        tournament_m32 = seconds;
      }
      row.push_back(TextTable::num(seconds * 1e6, 1));  // microseconds
    }
    t.add_row(row);
  }

  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout << "\n(all entries in microseconds per barrier episode)\n"
              << "\nPaper expectations (Fig. 4): counter worst and growing"
                 " steeply;\ntree > dissemination > tournament ~ MCS; the"
                 " global-wakeup-flag (M)\nvariants much flatter, with"
                 " tournament(M) best overall.\n";
    if (counter32 > 0 && tournament_m32 > 0) {
      std::cout << "Measured at P=32: counter/tournament(M) ratio = "
                << TextTable::num(counter32 / tournament_m32, 1) << "x\n";
    }
  }
  return 0;
}
