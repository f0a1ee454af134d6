// Bit-determinism guarantees of the simulation core.
//
// The host-side fast paths (allocation-free event queue, table-driven ring
// retries, coherence MRU hint) are pure optimisations: for a fixed seed a
// run must dispatch exactly the same events and report exactly the same
// simulated cycle counts every time. These tests pin that contract:
//  - identical repeated runs (events_dispatched + simulated time) for a
//    barrier episode and a small Integer Sort;
//  - the event-driven ring against a line-by-line reimplementation of the
//    original polled model (O(positions) scan per retry), asserting
//    identical per-transaction completion times and slot waits.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/net/ring.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr {
namespace {

struct RunFingerprint {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  double seconds = 0;

  bool operator==(const RunFingerprint& o) const {
    return events == o.events && end_time == o.end_time && seconds == o.seconds;
  }
};

RunFingerprint barrier_run() {
  machine::KsrMachine m(machine::MachineConfig::ksr1(16));
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
  double last = 0;
  m.run([&](machine::Cpu& cpu) {
    for (int e = 0; e < 5; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    last = cpu.seconds();
  });
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          last};
}

TEST(Determinism, BarrierEpisodeIsBitReproducible) {
  const RunFingerprint a = barrier_run();
  const RunFingerprint b = barrier_run();
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.end_time, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.seconds, b.seconds);
}

RunFingerprint is_run() {
  machine::KsrMachine m(machine::MachineConfig::ksr1(4).scaled_by(64));
  nas::IsConfig cfg;
  cfg.log2_keys = 12;
  cfg.log2_buckets = 8;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          r.seconds};
}

TEST(Determinism, IntegerSortIsBitReproducible) {
  const RunFingerprint a = is_run();
  const RunFingerprint b = is_run();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.seconds, b.seconds);
}

// ---------------------------------------------------------------------------
// Reference ring: the original polled implementation, kept verbatim (modulo
// the removed Stats/Tracer plumbing). Every failed attempt rescans the ring
// for the next passing slot coordinate; the production SlottedRing replaced
// that scan with a precomputed delta table. Both run on the same engine
// semantics, so any divergence in the table logic shows up as a different
// per-transaction latency or wait.
class PolledRing {
 public:
  using Done = net::SlottedRing::Done;

  PolledRing(sim::Engine& engine, const net::SlottedRing::Config& cfg)
      : engine_(engine), cfg_(cfg) {
    const unsigned n = cfg_.positions;
    const unsigned s = std::min(cfg_.slots_per_subring, n);
    subrings_.resize(cfg_.subrings);
    for (auto& sr : subrings_) {
      sr.coord_to_slot.assign(n, -1);
      for (unsigned i = 0; i < s; ++i) {
        const unsigned coord =
            static_cast<unsigned>((static_cast<std::uint64_t>(i) * n) / s);
        if (sr.coord_to_slot[coord] < 0) {
          sr.coord_to_slot[coord] = static_cast<std::int32_t>(i);
        }
      }
      sr.occupied.assign(s, 0);
      sr.waiting.resize(n);
    }
  }

  void inject(unsigned src_pos, unsigned subring, Done done) {
    auto& sr = subrings_[subring];
    sr.waiting[src_pos].push_back(
        Pending{std::move(done), engine_.now(), false});
    Pending& head = sr.waiting[src_pos].front();
    if (!head.polling) {
      head.polling = true;
      const std::uint64_t tick =
          (engine_.now() + cfg_.hop_ns - 1) / cfg_.hop_ns;
      engine_.at(tick * cfg_.hop_ns,
                 [this, subring, src_pos] { try_head(subring, src_pos); });
    }
  }

 private:
  struct Pending {
    Done done;
    sim::Time enqueued = 0;
    bool polling = false;
  };
  struct SubRing {
    std::vector<std::int32_t> coord_to_slot;
    std::vector<std::uint8_t> occupied;
    std::vector<std::deque<Pending>> waiting;
  };

  std::uint64_t next_passing_tick(const SubRing& sr, unsigned pos,
                                  std::uint64_t tick) const {
    const unsigned n = cfg_.positions;
    for (std::uint64_t d = 1; d <= n; ++d) {
      const unsigned coord =
          (pos + n - static_cast<unsigned>((tick + d) % n)) % n;
      if (sr.coord_to_slot[coord] >= 0) return tick + d;
    }
    return tick + 1;
  }

  void try_head(unsigned subring, unsigned pos) {
    auto& sr = subrings_[subring];
    auto& queue = sr.waiting[pos];
    if (queue.empty()) return;
    queue.front().polling = false;

    const unsigned n = cfg_.positions;
    const std::uint64_t tick = engine_.now() / cfg_.hop_ns;
    const unsigned coord = (pos + n - static_cast<unsigned>(tick % n)) % n;
    const std::int32_t slot = sr.coord_to_slot[coord];

    if (slot >= 0 && sr.occupied[static_cast<std::size_t>(slot)] == 0) {
      sr.occupied[static_cast<std::size_t>(slot)] = 1;
      Pending claimed = std::move(queue.front());
      queue.pop_front();
      const sim::Duration wait = engine_.now() - claimed.enqueued;
      engine_.in(cfg_.positions * cfg_.hop_ns,
                 [this, subring, slot, done = std::move(claimed.done), wait] {
                   subrings_[subring].occupied[static_cast<std::size_t>(slot)] =
                       0;
                   done(wait);
                 });
    }

    if (!queue.empty() && !queue.front().polling) {
      queue.front().polling = true;
      const std::uint64_t next = next_passing_tick(sr, pos, tick);
      engine_.at(next * cfg_.hop_ns,
                 [this, subring, pos] { try_head(subring, pos); });
    }
  }

  sim::Engine& engine_;
  net::SlottedRing::Config cfg_;
  std::vector<SubRing> subrings_;
};

// One completed transaction: who, when it finished, how long it waited.
struct Txn {
  unsigned src;
  sim::Time completed;
  sim::Duration wait;

  bool operator==(const Txn& o) const {
    return src == o.src && completed == o.completed && wait == o.wait;
  }
};

// A deterministic, contended injection schedule: bursts from every position
// plus a trickle of stragglers at awkward (non-tick-aligned) times.
std::vector<std::pair<sim::Time, unsigned>> injection_schedule(unsigned n) {
  std::vector<std::pair<sim::Time, unsigned>> plan;
  for (unsigned p = 0; p < n; ++p) {
    for (int k = 0; k < 6; ++k) {
      plan.emplace_back(static_cast<sim::Time>(k) * 450 + p * 17, p);
    }
  }
  for (unsigned p = 0; p < n; p += 3) {
    plan.emplace_back(12345 + p * 7, p);
  }
  return plan;
}

template <typename Ring>
std::vector<Txn> drive(const net::SlottedRing::Config& cfg) {
  sim::Engine eng;
  Ring ring(eng, cfg);
  std::vector<Txn> log;
  for (const auto& [when, pos] : injection_schedule(cfg.positions)) {
    const unsigned p = pos;
    eng.at(when, [&ring, &eng, &log, p] {
      ring.inject(p, p % 2, [&eng, &log, p](sim::Duration wait) {
        log.push_back({p, eng.now(), wait});
      });
    });
  }
  eng.run();
  return log;
}

// Adapter so drive<> can construct the production ring (extra name arg).
class ProductionRing : public net::SlottedRing {
 public:
  ProductionRing(sim::Engine& eng, const Config& cfg)
      : net::SlottedRing(eng, cfg, "xval") {}
};

TEST(Determinism, RingMatchesPolledReferenceModel) {
  const net::SlottedRing::Config cfg{};  // KSR-1 leaf ring: 32 pos, 2x12 slots
  const std::vector<Txn> got = drive<ProductionRing>(cfg);
  const std::vector<Txn> want = drive<PolledRing>(cfg);
  ASSERT_EQ(got.size(), injection_schedule(cfg.positions).size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "transaction " << i << " diverged: src="
                               << got[i].src << " completed=" << got[i].completed
                               << " wait=" << got[i].wait << " vs reference src="
                               << want[i].src << " completed="
                               << want[i].completed << " wait=" << want[i].wait;
  }
}

TEST(Determinism, RingMatchesPolledReferenceOnOddGeometry) {
  // Non-default geometry: odd position count, slots that don't divide it.
  net::SlottedRing::Config cfg;
  cfg.positions = 13;
  cfg.slots_per_subring = 5;
  cfg.subrings = 2;
  cfg.hop_ns = 70;
  const std::vector<Txn> got = drive<ProductionRing>(cfg);
  const std::vector<Txn> want = drive<PolledRing>(cfg);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "transaction " << i;
  }
}

}  // namespace
}  // namespace ksr
