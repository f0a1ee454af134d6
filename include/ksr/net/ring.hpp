#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "ksr/obs/tracer.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/time.hpp"

// Slotted, pipelined, unidirectional ring (paper §2).
//
// The KSR-1 leaf ring has 24 slots organised as two address-interleaved
// sub-rings of 12 slots each; slots circulate past the ring interfaces, and a
// node injects a packet by claiming an *empty slot as it passes*. Because a
// response must travel the rest of the way around to reach the requester, a
// transaction occupies its slot for exactly one full circulation regardless
// of where the responder sits (paper footnote 3: any remote access costs the
// same as accessing the neighbour). The protocol guarantees round-robin
// fairness and forward progress; pipelining means many transactions can be
// in flight at once — the property that makes tournament-style barriers win.
//
// Model: time is divided into hop periods. S equally spaced slots circulate
// over N interface positions. In the rotating frame a slot is a fixed
// coordinate, so injection at position s at tick T succeeds iff coordinate
// (s - T) mod N is a slot and it is free; the packet is delivered (and the
// slot freed) N ticks later, back at the source. Waiting injectors at a
// position form a FIFO with round-robin fairness and the paper's saturation
// behaviour.
//
// Host fast path: the model is fully event-driven — an idle ring (no waiting
// injector) schedules nothing at all; attempt events exist only while a
// position's FIFO head is waiting for a slot. Slot arrival times are
// computed closed-form at inject()/retry time from a precomputed per-
// coordinate delta table (in the rotating frame the passing coordinate
// decreases by one per tick, so "ticks until the next slot passes" is a
// single table lookup), replacing an O(positions) scan per failed attempt.
// The attempt cadence itself — one event per slot-passing tick per waiting
// head — is deliberately preserved: the engine's (time, seq) order, and
// with it every simulated cycle and events_dispatched() count, stays
// bit-identical to the original polled model.
namespace ksr::net {

class SlottedRing {
 public:
  struct Config {
    unsigned positions = 32;        // ring interface positions (cells + ARDs)
    unsigned slots_per_subring = 12;
    unsigned subrings = 2;          // address-interleaved by sub-page id bit
    sim::Duration hop_ns = 100;     // 2 KSR-1 cycles per hop
    // Rotate every slot coordinate by this many positions. 0 is the paper
    // layout; the schedule fuzzer (ksrfuzz) sets nonzero values to shift
    // which positions face an empty slot first, perturbing injection order
    // without changing slot count, spacing, or circulation time.
    unsigned phase = 0;
  };

  /// Completion callback: `inject_wait` is the time spent waiting for an
  /// empty slot (the contention component the paper's Fig. 2 measures as the
  /// ~8% rise at 32 processors, and the saturation component for IS).
  using Done = std::function<void(sim::Duration inject_wait)>;

  SlottedRing(sim::Engine& engine, const Config& cfg, std::string name);

  SlottedRing(const SlottedRing&) = delete;
  SlottedRing& operator=(const SlottedRing&) = delete;

  /// Submit a packet at `src_pos` on `subring`; `done` fires one full
  /// circulation after the packet wins a slot.
  void inject(unsigned src_pos, unsigned subring, Done done);

  /// Time for one full circulation (N hops).
  [[nodiscard]] sim::Duration circulation_ns() const noexcept {
    return cfg_.positions * cfg_.hop_ns;
  }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Total circulating slots across all sub-rings (denominator of the slot
  /// utilization the metrics sampler reports).
  [[nodiscard]] std::uint64_t slot_count() const noexcept {
    const unsigned s = std::min(cfg_.slots_per_subring, cfg_.positions);
    return static_cast<std::uint64_t>(s) * cfg_.subrings;
  }

  struct Stats {
    std::uint64_t packets = 0;
    sim::Duration total_inject_wait_ns = 0;
    std::uint64_t retries = 0;       // failed slot-grab attempts
    std::uint64_t max_in_flight = 0;
    std::uint64_t in_flight = 0;
    // Slot-occupancy integral ∫ in_flight dt (slot·ns), maintained at every
    // in_flight transition; busy_slot_ns / (slot_count · elapsed) is the
    // mean slot utilization the topo report prints. These two fields are
    // host-side observability only — the frozen 5-field checkpoint format
    // (docs/CHECKPOINT.md) neither saves nor restores them.
    std::uint64_t busy_slot_ns = 0;
    sim::Time last_change_ns = 0;
    [[nodiscard]] double mean_wait_ns() const noexcept {
      return packets ? static_cast<double>(total_inject_wait_ns) /
                           static_cast<double>(packets)
                     : 0.0;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// --- Checkpoint support (docs/CHECKPOINT.md). ---

  /// True when no slot is occupied and no injector is waiting on any
  /// position: the ring holds no in-flight simulated state. Checkpoints
  /// require every ring to be idle (the quiescent-point rule).
  [[nodiscard]] bool idle() const noexcept {
    for (const SubRing& sr : subrings_) {
      for (const std::uint8_t occ : sr.occupied) {
        if (occ) return false;
      }
      for (const auto& q : sr.waiting) {
        if (!q.empty()) return false;
      }
    }
    return true;
  }

  /// Restore host-side counters captured by stats(). Only meaningful while
  /// idle() — in-flight counts must be zero in any checkpointed Stats.
  void restore_stats(const Stats& s) noexcept { stats_ = s; }

  /// Attach a tracer ("ring" category: inject with its slot wait, deliver).
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Audit accessor (invariant checker, I6 liveness): reports the first
  /// waiting queue whose head has no retry event scheduled — such an
  /// injector would wait forever. Only meaningful between engine events
  /// (the flag is transiently clear inside try_head itself).
  [[nodiscard]] bool find_stranded_head(unsigned* subring,
                                        unsigned* pos) const noexcept;

 private:
  struct Pending {
    Done done;
    sim::Time enqueued = 0;
    bool polling = false;  // a retry event is scheduled for this entry
  };

  struct SubRing {
    std::vector<std::int32_t> coord_to_slot;  // N entries; -1 = not a slot
    std::vector<std::uint32_t> next_pass_delta;  // N entries; ticks to next pass
    std::vector<std::uint8_t> occupied;       // S entries
    std::vector<std::deque<Pending>> waiting;  // per position FIFO
  };

  [[nodiscard]] std::uint64_t tick_of(sim::Time t) const noexcept {
    return (t + cfg_.hop_ns - 1) / cfg_.hop_ns;  // next tick boundary >= t
  }

  /// Attempt to inject the head of `sr.waiting[pos]` at the current tick; on
  /// failure schedule a retry at the next slot-passing tick (table lookup).
  void try_head(unsigned subring, unsigned pos);

  sim::Engine& engine_;
  Config cfg_;
  std::string name_;
  std::vector<SubRing> subrings_;
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace ksr::net
