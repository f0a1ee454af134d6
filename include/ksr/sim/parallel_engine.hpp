#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ksr/sim/engine.hpp"
#include "ksr/sim/time.hpp"

// Deterministic multi-threaded discrete-event engine (docs/PARALLEL.md).
//
// The simulated machine is partitioned into *domains*; each domain is a
// complete serial Engine (its own event queue, observer lane, callback
// slab, fibers and tie-break sequence — all of the PR 1 fast-path
// machinery). Domains advance concurrently on host threads through
// *conservative time quanta* of width Δ (the ScaleSimulator recipe): within
// the quantum [kΔ, (k+1)Δ) a domain dispatches only its own events, and
// anything it wants to happen in another domain is appended to a per
// (src, dst) *boundary channel*. At the quantum barrier the coordinator
// merges every channel into its destination queue and the next quantum
// starts. The conservative rule — a boundary event's timestamp must be
// >= the end of the quantum that produced it — is what makes this safe:
// no domain can ever receive an event earlier than simulated time it has
// already executed past. Pick Δ as the minimum cross-domain latency of the
// model (for the slotted ring: one circulation, positions × hop_ns — a
// packet injected in quantum k is never delivered before quantum k+1);
// send() throws on any violation rather than silently breaking causality.
//
// Determinism contract (the PR 2 sweep-runner contract, now inside one
// simulation): results are bit-identical at any thread count, including
// the serial inline path. Three properties make this hold by construction:
//   1. a domain's intra-quantum execution is a serial Engine run — its
//      (time, seq) dispatch order depends only on its own inputs;
//   2. channels are appended by exactly one thread (the one advancing the
//      source domain) in that domain's deterministic execution order;
//   3. the barrier merge is a pure function of channel *contents*: packets
//      are ordered by (time, src domain, channel append order) and pushed
//      through the destination Engine's normal at() path, so same-time ties
//      land in the destination's (time, seq) order — and when a
//      sched_fuzz_seed is set, in the seed's hashed tie order (ksrfuzz
//      seeds replay exactly under any --sim-threads).
// Host thread scheduling can change *when* a domain's quantum slice runs,
// never *what* it computes.
//
// Degenerate shapes (all bit-identical to the general case):
//   * domains == 1 — run() is exactly domain(0).run() at any thread count
//     (threads clamp to domains): the serial engine inline, zero
//     quantum/barrier overhead (the perf gate covers this path).
//   * an empty domain simply arrives at every barrier without dispatching.
namespace ksr::sim {

class ParallelEngine {
 public:
  struct Config {
    unsigned domains = 1;
    unsigned threads = 1;     // host threads; 0 = one per hardware core
    Duration quantum_ns = 0;  // conservative quantum Δ; required > 0 when
                              // domains > 1 (derive from the model's minimum
                              // cross-domain latency)
  };

  explicit ParallelEngine(const Config& cfg);
  ~ParallelEngine();
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] unsigned domains() const noexcept {
    return static_cast<unsigned>(engines_.size());
  }
  /// Effective host thread count (after resolving threads == 0 and
  /// clamping to domains()).
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }
  [[nodiscard]] Duration quantum_ns() const noexcept { return cfg_.quantum_ns; }

  /// The serial engine owning domain `d`'s events and fibers. Components of
  /// domain `d` schedule local work directly on it (at/in/spawn/wake).
  [[nodiscard]] Engine& domain(unsigned d) { return *engines_.at(d); }
  [[nodiscard]] const Engine& domain(unsigned d) const {
    return *engines_.at(d);
  }

  /// Exclusive upper bound of the current quantum — the earliest legal
  /// timestamp for a mid-run send(). Stable for the whole phase: the
  /// coordinator writes it before releasing the workers into the phase
  /// (the release's mutex hand-off publishes it), so any thread advancing
  /// a domain may read it to stamp boundary packets. Between run() calls
  /// it holds the last quantum's bound and means nothing.
  [[nodiscard]] Time horizon() const noexcept { return horizon_; }

  /// Cross-domain boundary channel: run `fn` in domain `dst` at absolute
  /// simulated time `t`. Before run() any t >= 0 seeds the destination
  /// directly; during run() the caller must be the thread advancing domain
  /// `src` and `t` must be at or after the end of the current quantum
  /// (throws std::logic_error on a lookahead violation — the conservative
  /// guarantee would otherwise be silently broken). `src == dst` is allowed
  /// and still defers to the barrier (useful for uniform component code).
  void send(unsigned src, unsigned dst, Time t, InlineFn fn);

  /// Advance all domains to completion: quantum loop + barrier merges until
  /// every queue and channel drains, then per-domain end-of-run checks
  /// (deadlock detection, observer cleanup) in domain order. Rethrows the
  /// first failure by (quantum, domain index) — deterministic like
  /// everything else.
  void run();

  /// Sum of events dispatched across domains (the fingerprint; equals the
  /// serial engine's count when domains == 1).
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept;

  /// Latest simulated time across domains (equals the serial engine's now()
  /// when domains == 1).
  [[nodiscard]] Time now() const noexcept;

  /// Quantum barriers crossed during run() calls so far (host-side
  /// instrumentation; reported to BENCH_host.json as `quanta`).
  [[nodiscard]] std::uint64_t quanta() const noexcept { return quanta_; }

  /// Boundary packets merged at barriers so far.
  [[nodiscard]] std::uint64_t boundary_packets() const noexcept {
    return boundary_packets_;
  }

  /// Per-(src,dst) boundary-channel lifetime counters, maintained by the
  /// coordinator at every barrier merge — pure simulated data, so the
  /// values are bit-identical at any thread count. The slack histogram
  /// buckets (packet time − merge horizon) / Δ, clamped to the last bucket:
  /// bucket 0 = delivery in the immediately following quantum.
  struct ChannelStats {
    std::uint64_t packets = 0;
    std::uint64_t max_per_quantum = 0;  // peak packets in one barrier merge
    std::array<std::uint64_t, 8> slack_hist{};
  };
  /// Indexed [src * domains() + dst]; empty stats when domains() == 1.
  [[nodiscard]] const std::vector<ChannelStats>& channel_stats()
      const noexcept {
    return channel_stats_;
  }

  /// Host-side (wall-clock) parallel self-profiler. Unlike channel_stats(),
  /// these numbers vary run to run — they feed the [host] stderr line and
  /// BENCH_host.json only, never a byte-stable report file.
  struct HostProfile {
    unsigned threads = 1;
    std::uint64_t quanta = 0;
    std::uint64_t phase_wall_ns = 0;    // Σ per-quantum phase wall clock
    std::uint64_t barrier_wait_ns = 0;  // Σ per-slot idle at quantum barriers
    std::vector<std::uint64_t> domain_wall_ns;    // Σ run_until wall per domain
    std::vector<std::uint64_t> critical_quanta;   // quanta this domain was
                                                  // the slowest (critical path)
    /// Fraction of pool capacity spent waiting at quantum barriers, in parts
    /// per million: barrier_wait_ns / (threads · phase_wall_ns).
    [[nodiscard]] std::uint64_t barrier_wait_ppm() const noexcept {
      const std::uint64_t den = static_cast<std::uint64_t>(threads) *
                                phase_wall_ns;
      if (den == 0) return 0;
      return static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(barrier_wait_ns) * 1'000'000u) /
          den);
    }
    /// Domain with the most critical quanta (ties: lowest index); 0 when no
    /// quanta ran.
    [[nodiscard]] unsigned critical_domain() const noexcept {
      unsigned best = 0;
      for (unsigned d = 1; d < critical_quanta.size(); ++d) {
        if (critical_quanta[d] > critical_quanta[best]) best = d;
      }
      return best;
    }
  };
  [[nodiscard]] HostProfile host_profile() const;

  /// Forward the schedule-fuzz tie-break seed to every domain (each domain
  /// hashes its own insertion sequence; see Engine::set_tie_break_seed).
  void set_tie_break_seed(std::uint64_t seed) noexcept;

  /// --- Checkpoint support (docs/CHECKPOINT.md). ---

  /// Throw std::logic_error unless every domain is quiescent (no pending
  /// events, observers, or live fibers) and every boundary channel is empty.
  /// The diagnostic names the first offending domain or (src, dst) channel
  /// and its undelivered packet count — serializing mid-flight state would
  /// silently break the bit-exact restore contract, so capture refuses.
  void assert_quiescent(const char* what) const;

  /// Coordinator counters for checkpointing; restore only at a quiescent
  /// point so a restored run reports the same quanta / boundary-packet
  /// totals the uninterrupted run would.
  void restore_counters(std::uint64_t quanta,
                        std::uint64_t boundary_packets) noexcept {
    quanta_ = quanta;
    boundary_packets_ = boundary_packets;
  }

 private:
  struct Packet {
    Time t;
    InlineFn fn;
  };
  struct Channel {
    std::vector<Packet> q;
  };

  [[nodiscard]] Channel& channel(unsigned src, unsigned dst) noexcept {
    return channels_[src * domains() + dst];
  }

  /// Advance every domain assigned to pool slot `slot` (static round-robin:
  /// domain d belongs to slot d % threads_) up to `horizon_`. Exceptions
  /// are parked per domain and rethrown by the coordinator in domain order.
  void advance_slot(unsigned slot);

  /// Earliest pending event time across all domains (channels are empty at
  /// the call sites), or the Time maximum when fully drained.
  [[nodiscard]] Time next_event_time() const noexcept;

  /// Merge every channel into its destination queue: per destination,
  /// packets ordered by (time, src, append order) through Engine::at().
  void merge_channels();

  void start_pool();
  void stop_pool() noexcept;
  void worker_main(unsigned slot);
  void run_quantum_phase();  // one parallel phase + barrier

  Config cfg_;
  unsigned threads_ = 1;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Channel> channels_;  // [src * domains + dst]
  std::vector<ChannelStats> channel_stats_;  // same indexing
  std::vector<std::exception_ptr> domain_errors_;
  std::uint64_t quanta_ = 0;
  std::uint64_t boundary_packets_ = 0;

  // Self-profiler state. Per-quantum scratch (slot_wall_ns_,
  // quantum_domain_wall_ns_) is written by the one thread advancing that
  // slot/domain during the phase and read by the coordinator after the
  // barrier (the arrived_ mutex hand-off publishes it); totals are
  // coordinator-only.
  std::vector<std::uint64_t> slot_wall_ns_;           // [threads_] scratch
  std::vector<std::uint64_t> quantum_domain_wall_ns_; // [domains] scratch
  std::vector<std::uint64_t> domain_wall_ns_;         // [domains] totals
  std::vector<std::uint64_t> critical_quanta_;        // [domains] totals
  std::uint64_t phase_wall_ns_ = 0;
  std::uint64_t barrier_wait_ns_ = 0;

  // Worker pool (lazy: only a multi-threaded run() starts it). Coordinator
  // and workers rendezvous on an epoch counter: bumping epoch_ releases
  // every worker into one quantum phase with the current horizon_; each
  // worker acks via arrived_ and the coordinator waits for all of them.
  // The coordinator itself advances the domains of the last pool slot.
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  unsigned arrived_ = 0;
  bool shutdown_ = false;
  Time horizon_ = 0;   // exclusive upper bound of the current quantum
  bool running_ = false;  // inside run()'s quantum loop (send() validation)
};

}  // namespace ksr::sim
