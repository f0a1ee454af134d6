// Reproduces the cross-architecture comparison of Section 3.2.3: the same
// barrier algorithms on a bus-based Symmetry-like machine (everything
// serializes; the naive counter is competitive and MCS(M) beats
// tournament(M)) and on a Butterfly-like machine (parallel paths but no
// coherent caches; dissemination wins and global-flag spinning hammers one
// memory module).
#include "bench_common.hpp"
#include "ksr/machine/bus_machine.hpp"
#include "ksr/machine/butterfly_machine.hpp"

namespace {

using namespace ksr;         // NOLINT
using namespace ksr::bench;  // NOLINT

template <typename MachineT>
void compare(obs::Session& session, const std::string& tag,
             const std::string& title, const machine::MachineConfig& base_cfg,
             const std::vector<unsigned>& procs, int episodes, bool csv) {
  std::vector<std::string> headers{"barrier \\ procs"};
  for (unsigned p : procs) headers.push_back(std::to_string(p));
  TextTable t(headers);
  for (sync::BarrierKind kind : sync::all_barrier_kinds()) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (unsigned p : procs) {
      machine::MachineConfig cfg = base_cfg;
      cfg.nproc = p;
      MachineT m(cfg);
      ScopedObs obs(session, m,
                    tag + " " + std::string(to_string(kind)) +
                        " p=" + std::to_string(p));
      row.push_back(
          TextTable::num(barrier_episode_seconds(m, kind, episodes) * 1e6, 1));
    }
    t.add_row(row);
  }
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
  obs::Session session(opt.obs, "sec323_arch_compare");
  const int episodes = opt.quick ? 5 : 20;
  print_header("Barriers across architectures: Symmetry bus & Butterfly MIN",
               "Section 3.2.3");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{4, 16} : std::vector<unsigned>{4, 8, 12, 16};

  compare<machine::BusMachine>(session, "bus",
                               "Sequent Symmetry model (single snooping bus)",
                               machine::MachineConfig::symmetry(16), procs,
                               episodes, opt.csv);
  std::cout
      << "Expected (paper): the bus serializes all communication, so the\n"
         "parallel-path algorithms lose their edge; counter is competitive\n"
         "(best on the real Symmetry) and MCS(M) beats tournament(M) since\n"
         "the 4-ary arrival tree halves the critical path at no extra cost\n"
         "when everything serializes anyway.\n";

  const std::vector<unsigned> bprocs =
      opt.quick ? std::vector<unsigned>{8, 32}
                : std::vector<unsigned>{8, 16, 24, 32};
  compare<machine::ButterflyMachine>(
      session, "butterfly",
      "BBN Butterfly model (multistage network, no coherent caches)",
      machine::MachineConfig::butterfly(32), bprocs, episodes, opt.csv);
  std::cout
      << "Expected (paper): with no caches, every spin poll crosses the\n"
         "network: global-wakeup-flag variants and the counter hammer a\n"
         "single home module, while dissemination — whose flags live in\n"
         "each spinner's own module — wins, followed by tournament, then\n"
         "MCS (log4 P + log2 P rounds).\n";
  return 0;
}
