// Ring trace: a slot's-eye view of the interconnect. Drives the slotted
// ring directly (no caches) and prints per-slot utilisation, wait
// distributions, and the saturation knee as offered load rises — useful for
// understanding why the paper's Fig. 2 curve is flat and where IS's
// 32-processor kink comes from.
//
//   $ ./ring_trace [positions] [slots_per_subring]
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ksr/net/ring.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/stats.hpp"
#include "ksr/util/parse.hpp"

int main(int argc, char** argv) try {
  using namespace ksr;  // NOLINT

  net::SlottedRing::Config cfg;
  cfg.positions = util::count_arg(argc, argv, 1, 32);
  cfg.slots_per_subring = util::count_arg(argc, argv, 2, 12);

  std::printf("slotted ring: %u positions, 2 x %u slots, hop %llu ns, "
              "circulation %.2f us\n\n",
              cfg.positions, cfg.slots_per_subring,
              static_cast<unsigned long long>(cfg.hop_ns),
              static_cast<double>(cfg.positions * cfg.hop_ns) / 1000.0);

  std::printf("%16s %12s %12s %10s %12s\n", "inject every", "packets",
              "mean wait", "p99 wait", "retries");

  // Sweep offered load: every position injects periodically.
  for (sim::Duration period : {20000u, 10000u, 5000u, 3000u, 2000u, 1500u,
                               1200u, 1000u, 800u}) {
    sim::Engine eng;
    net::SlottedRing ring(eng, cfg, "trace");
    sim::Samples waits;
    const int per_position = 40;

    for (unsigned pos = 0; pos < cfg.positions; ++pos) {
      for (int k = 0; k < per_position; ++k) {
        const sim::Time when = static_cast<sim::Time>(k) * period +
                               pos * 37;  // slight phase offset per position
        eng.at(when, [&ring, &waits, pos, k] {
          ring.inject(pos, static_cast<unsigned>(k) % 2,
                      [&waits](sim::Duration w) {
                        waits.add(static_cast<double>(w));
                      });
        });
      }
    }
    eng.run();
    std::printf("%13llu ns %12llu %9.0f ns %7.0f ns %12llu\n",
                static_cast<unsigned long long>(period),
                static_cast<unsigned long long>(ring.stats().packets),
                waits.mean(), waits.quantile(0.99),
                static_cast<unsigned long long>(ring.stats().retries));
  }

  std::printf(
      "\nReading the knee: one transaction holds a slot for a full\n"
      "circulation (%.2f us). With %u slots per sub-ring the ring absorbs\n"
      "~%.1f transactions per microsecond; beyond that, waits explode —\n"
      "the saturation the paper hits with 32 simultaneous requesters.\n",
      static_cast<double>(cfg.positions * cfg.hop_ns) / 1000.0,
      cfg.slots_per_subring,
      2.0 * cfg.slots_per_subring /
          (static_cast<double>(cfg.positions * cfg.hop_ns) / 1000.0));
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "ring_trace: %s\n", e.what());
  return 1;
}
