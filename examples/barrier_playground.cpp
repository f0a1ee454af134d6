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
#include <iostream>
#include <stdexcept>
#include <string>

#include "ksr/machine/factory.hpp"
#include "ksr/sync/barrier.hpp"

namespace {

using namespace ksr;  // NOLINT

machine::MachineConfig config_for(const std::string& name, unsigned procs) {
  if (name == "ksr2") return machine::MachineConfig::ksr2(procs);
  if (name == "symmetry") return machine::MachineConfig::symmetry(procs);
  if (name == "butterfly") return machine::MachineConfig::butterfly(procs);
  return machine::MachineConfig::ksr1(procs);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string barrier_name = argc > 1 ? argv[1] : "tournament-m";
  const std::string machine_name = argc > 2 ? argv[2] : "ksr1";
  const unsigned procs = argc > 3 ? static_cast<unsigned>(std::stoul(argv[3]))
                                  : 16u;
  const int episodes = argc > 4 ? std::stoi(argv[4]) : 25;

  sync::BarrierKind kind{};
  try {
    kind = sync::barrier_kind_named(barrier_name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  auto m = machine::make_machine(config_for(machine_name, procs));
  auto barrier = sync::make_barrier(*m, kind);

  std::printf("%s barrier, %u processors on %s\n",
              std::string(barrier->name()).c_str(), procs,
              machine::to_string(m->config().kind));

  double total = 0;
  auto res = m->run([&](machine::Cpu& cpu) {
    barrier->arrive(cpu);  // warm-up
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));  // arrival skew
      barrier->arrive(cpu);
    }
    if (cpu.seconds() - t0 > total) total = cpu.seconds() - t0;
  });

  std::printf("  %.1f us per episode (%d episodes)\n",
              total / episodes * 1e6, episodes);
  std::printf("  machine-wide during the run:\n");
  std::printf("    network transactions : %llu\n",
              static_cast<unsigned long long>(res.pmon.ring_requests));
  std::printf("    atomic NACK retries  : %llu\n",
              static_cast<unsigned long long>(res.pmon.ring_nacks));
  std::printf("    invalidations        : %llu\n",
              static_cast<unsigned long long>(res.pmon.invalidations_received));
  std::printf("    snarfs               : %llu\n",
              static_cast<unsigned long long>(res.pmon.snarfs));
  std::printf("    poststores           : %llu\n",
              static_cast<unsigned long long>(res.pmon.poststores_issued));
  return 0;
}
