// Barrier playground: run any of the paper's nine barrier algorithms on any
// of the three simulated machines and watch what the memory system does.
//
//   $ ./barrier_playground [barrier] [machine] [procs] [episodes]
//   $ ./barrier_playground tournament-m ksr1 32 50
//   $ ./barrier_playground counter symmetry 16
//
// Machines: ksr1, ksr2, symmetry, butterfly.
// Barriers: counter, tree, tree-m, dissemination, tournament, tournament-m,
//           mcs, mcs-m, system.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "ksr/machine/factory.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/util/parse.hpp"

int main(int argc, char** argv) try {
  using namespace ksr;  // NOLINT
  const sync::BarrierKind kind =
      sync::barrier_kind_named(argc > 1 ? argv[1] : "tournament-m");
  const unsigned procs = util::count_arg(argc, argv, 3, 16);
  const int episodes = static_cast<int>(util::count_arg(argc, argv, 4, 25));
  auto m = machine::make_machine(
      machine::MachineConfig::named(argc > 2 ? argv[2] : "ksr1", procs));

  std::printf("%s barrier, %u processors on %s\n",
              std::string(sync::to_string(kind)).c_str(), procs,
              machine::to_string(m->config().kind));

  const double seconds = sync::barrier_episode_seconds(*m, kind, episodes);
  cache::PerfMonitor pmon;
  for (unsigned c = 0; c < m->nproc(); ++c) pmon.add(m->cell_pmon(c));

  std::printf("  %.1f us per episode (%d episodes)\n", seconds * 1e6,
              episodes);
  std::printf("  machine-wide during the run:\n");
  std::printf("    network transactions : %llu\n",
              static_cast<unsigned long long>(pmon.ring_requests));
  std::printf("    atomic NACK retries  : %llu\n",
              static_cast<unsigned long long>(pmon.ring_nacks));
  std::printf("    invalidations        : %llu\n",
              static_cast<unsigned long long>(pmon.invalidations_received));
  std::printf("    snarfs               : %llu\n",
              static_cast<unsigned long long>(pmon.snarfs));
  std::printf("    poststores           : %llu\n",
              static_cast<unsigned long long>(pmon.poststores_issued));
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "barrier_playground: %s\n", e.what());
  return 1;
}
