// Reproduces Fig. 5 ("Performance of the barriers on 64-node KSR-2"):
// the same nine barriers, on the two-level ring (two 32-cell leaf rings
// joined through ARDs by the level-1 ring), 2x CPU clock.
//
// One SweepRunner job per (barrier, P) cell, merged in submission order.
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"

namespace {

struct Cell {
  double seconds = 0.0;
  ksr::obs::JobObs obs;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "fig5_barriers_ksr2");
  SweepRunner runner(opt.jobs);
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
  std::vector<std::function<Cell()>> jobs;
  jobs.reserve(kinds.size() * procs.size());
  for (sync::BarrierKind kind : kinds) {
    for (unsigned p : procs) {
      jobs.emplace_back([kind, p, episodes, &session] {
        machine::KsrMachine m(machine::MachineConfig::ksr2(p));
        Cell c;
        c.obs = session.job();
        c.obs.attach(m);
        c.seconds = barrier_episode_seconds(m, kind, episodes);
        c.obs.finish();
        return c;
      });
    }
  }
  std::vector<Cell> cells = runner.run(jobs);

  std::size_t j = 0;
  for (sync::BarrierKind kind : kinds) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (unsigned p : procs) {
      Cell& c = cells[j++];
      if (session.active()) {
        session.collect(std::move(c.obs), std::string(to_string(kind)) +
                                              " p=" + std::to_string(p));
      }
      row.push_back(TextTable::num(c.seconds * 1e6, 1));
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
