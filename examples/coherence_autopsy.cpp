// Coherence autopsy: put a logic analyser on the ring. Runs ONE episode of
// a chosen barrier with the event tracer attached and prints the complete,
// annotated timeline of ring packets and coherence transitions — the
// clearest way to see *why* the algorithms differ (hot-spot serialization
// for the counter, parallel pair traffic for the tournament, the packed
// word ping-pong for MCS).
//
//   $ ./coherence_autopsy [barrier] [procs]
//   $ ./coherence_autopsy counter 4
//   $ ./coherence_autopsy mcs 8
#include <cstdio>
#include <stdexcept>
#include <string>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/util/parse.hpp"

int main(int argc, char** argv) try {
  using namespace ksr;  // NOLINT

  const std::string name = argc > 1 ? argv[1] : "tournament-m";
  const unsigned procs = util::count_arg(argc, argv, 2, 4);
  const sync::BarrierKind kind = sync::barrier_kind_named(name);

  machine::KsrMachine m(machine::MachineConfig::ksr1(procs));
  auto barrier = sync::make_barrier(m, kind);
  obs::Tracer tracer;

  // Warm-up episode untraced, then trace exactly one episode.
  m.run([&](machine::Cpu& cpu) { barrier->arrive(cpu); });
  m.attach_tracer(&tracer);
  double episode_us = 0;
  m.run([&](machine::Cpu& cpu) {
    const double t0 = cpu.seconds();
    barrier->arrive(cpu);
    if (cpu.seconds() - t0 > episode_us) episode_us = cpu.seconds() - t0;
  });
  episode_us *= 1e6;

  std::printf("%s barrier, %u processors — one episode, %.1f us\n\n",
              std::string(to_string(kind)).c_str(), procs, episode_us);
  std::printf("%10s  %-10s %-16s %8s %6s %10s\n", "t (ns)", "category",
              "event", "subject", "actor", "detail");
  for (const auto& e : tracer) {
    const std::string cat(tracer.category_name(e.cat));
    const std::string ev(tracer.event_name(e.ev));
    std::printf("%10llu  %-10s %-16s %8llu %6llu %10lld\n",
                static_cast<unsigned long long>(e.t), cat.c_str(), ev.c_str(),
                static_cast<unsigned long long>(e.subject),
                static_cast<unsigned long long>(e.actor),
                static_cast<long long>(e.detail));
  }

  std::printf("\nsummary: %zu events | ring inject/deliver %zu/%zu | "
              "grants s/e/a %zu/%zu/%zu | invalidations %zu | NACKs %zu\n",
              tracer.size(), tracer.count("ring", "inject"),
              tracer.count("ring", "deliver"),
              tracer.count("coherence", "grant-shared"),
              tracer.count("coherence", "grant-exclusive"),
              tracer.count("coherence", "grant-atomic"),
              tracer.count("coherence", "invalidate"),
              tracer.count("coherence", "nack"));
  std::printf("\nTry: ./coherence_autopsy counter %u   (watch the NACK storm\n"
              "on one sub-page) vs ./coherence_autopsy dissemination %u\n"
              "(disjoint pairs riding the ring in parallel).\n",
              procs, procs);
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "coherence_autopsy: %s\n", e.what());
  return 1;
}
