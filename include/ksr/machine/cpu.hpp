#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>

#include "ksr/cache/perf_monitor.hpp"
#include "ksr/mem/heap.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/rng.hpp"
#include "ksr/sim/time.hpp"

// The processor-side programming interface.
//
// A simulated program is an ordinary C++ callable receiving a Cpu&. Every
// shared-memory operation goes through this interface, which charges the
// machine-specific timing model (caches + interconnect) and then performs
// the real data movement, so programs compute genuine results while their
// reference streams drive the simulated machine.
//
// Cost accounting: each Cpu keeps a local clock that may run ahead of the
// global event clock during pure compute; before any globally visible
// operation the Cpu "syncs" — if other events are pending earlier than its
// local time it parks until then, so cross-processor orderings (spins,
// invalidation, lock hand-off) are causally correct and runs deterministic.
namespace ksr::machine {

class Machine;

class Cpu {
 public:
  enum class Op : std::uint8_t { kRead, kWrite };

  virtual ~Cpu() = default;
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  [[nodiscard]] unsigned id() const noexcept { return id_; }
  [[nodiscard]] unsigned nproc() const noexcept;
  [[nodiscard]] Machine& machine() noexcept { return machine_; }

  /// Local clock, absolute simulated nanoseconds.
  [[nodiscard]] sim::Time now() const noexcept { return local_now_; }

  /// Seconds since this run() started — the unit the paper plots.
  [[nodiscard]] double seconds() const noexcept {
    return sim::to_seconds(local_now_ - epoch_);
  }

  /// Pure local compute: `n` CPU cycles (scales with the machine's clock,
  /// i.e. it is twice as fast on the KSR-2).
  void work(std::uint64_t n) { tick_cycles(n); }

  /// Advance the local clock by raw nanoseconds (clock-independent delays).
  void idle_ns(sim::Duration d) { local_now_ += d; }

  // ---- Typed element access ----

  template <typename T>
  [[nodiscard]] T read(const mem::SharedArray<T>& a, std::size_t i) {
    access(a.addr(i), sizeof(T), Op::kRead);
    return a.value(i);
  }

  template <typename T>
  void write(mem::SharedArray<T>& a, std::size_t i, std::type_identity_t<T> v) {
    access(a.addr(i), sizeof(T), Op::kWrite);
    a.set_value(i, v);
  }

  // ---- Bulk streaming access (timing only; one sub-block at a time).
  // Use for contiguous sweeps: equivalent to touching every sub-block in the
  // range. Per-element instruction cost should be added with work().
  void read_range(mem::Sva base, std::size_t bytes) { range(base, bytes, Op::kRead); }
  void write_range(mem::Sva base, std::size_t bytes) { range(base, bytes, Op::kWrite); }

  // ---- KSR-1 explicit primitives (portable: degraded but meaningful
  // semantics on the Symmetry and Butterfly substrates) ----

  /// Acquire the sub-page containing `a` in Atomic (locked-exclusive) state.
  /// Blocks, retrying over the interconnect, until no other cell holds it
  /// Atomic — the hardware primitive the paper builds all locks from.
  void get_subpage(mem::Sva a) { do_get_subpage(a); }

  /// Release Atomic state previously obtained with get_subpage.
  void release_subpage(mem::Sva a) { do_release_subpage(a); }

  /// Hint: fetch the sub-page of `a` into the local cache without blocking.
  /// `exclusive` requests write permission up front (the KSR prefetch
  /// instruction's exclusive mode) so a subsequent store avoids the upgrade
  /// transaction.
  void prefetch(mem::Sva a, bool exclusive = false) {
    do_prefetch(a, exclusive);
  }

  /// Broadcast the (already written) sub-page of `a` to all cells holding
  /// invalid placeholders for it. The issuing processor stalls only for the
  /// local-cache write; the packet rides the ring asynchronously.
  void post_store(mem::Sva a) { do_post_store(a); }

  /// write() followed by post_store() — the common idiom.
  template <typename T>
  void poststore(mem::SharedArray<T>& a, std::size_t i,
                 std::type_identity_t<T> v) {
    write(a, i, v);
    post_store(a.addr(i));
  }

  [[nodiscard]] cache::PerfMonitor& pmon() noexcept { return *pmon_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return *rng_; }

  /// Internal: called by Machine::run before/after the program body.
  void begin_run(sim::Time epoch, sim::FiberId fid) {
    epoch_ = epoch;
    local_now_ = epoch;
    fiber_ = fid;
  }

 protected:
  Cpu(Machine& m, unsigned id, cache::PerfMonitor& pmon, sim::Rng& rng);

  /// Charge the timing model for one access touching [a, a+bytes).
  /// Implemented per machine kind; may block the fiber.
  virtual void access(mem::Sva a, std::size_t bytes, Op op) = 0;
  virtual void do_get_subpage(mem::Sva a) = 0;
  virtual void do_release_subpage(mem::Sva a) = 0;
  virtual void do_prefetch(mem::Sva a, bool exclusive) = 0;
  virtual void do_post_store(mem::Sva a) = 0;

  /// Yield if any event is pending earlier than the local clock. Every
  /// access runs this, so it is inline; on a multi-domain machine a call
  /// that does not yield goes on to horizon_sync().
  void lazy_sync() {
    if (eng_->next_event_time() < local_now_) {
      eng_->wait_until(local_now_);
    } else if (multi_domain_) {
      horizon_sync();
    }
  }
  /// Park until the global clock catches up to the local clock (required
  /// before interacting with the interconnect).
  void hard_sync();
  /// Block the fiber until some completion wakes it; returns at wake time
  /// and pulls the local clock forward.
  void block_until_woken();
  /// Wake this Cpu's fiber at time `t` (callable from completion callbacks).
  void wake_at(sim::Time t);

  void tick_cycles(std::uint64_t n) { local_now_ += n * cycle_ns_; }
  void tick_ns(sim::Duration d) { local_now_ += d; }

  void range(mem::Sva base, std::size_t bytes, Op op);

  /// The engine owning this cell's domain (bound at construction).
  [[nodiscard]] sim::Engine& eng() const noexcept { return *eng_; }

  /// The multi-domain half of lazy_sync(): yield once the local clock
  /// passes the current quantum's horizon.
  void horizon_sync();

  Machine& machine_;
  unsigned id_;
  cache::PerfMonitor* pmon_;
  sim::Rng* rng_;
  unsigned domain_;          // machine_.domain_of_cell(id_)
  sim::Engine* eng_;         // machine_.engine_of(domain_)
  sim::Duration cycle_ns_;   // machine_.config().cycle_ns
  bool multi_domain_;        // machine_.multi_domain()
  sim::Time local_now_ = 0;
  sim::Time epoch_ = 0;
  sim::FiberId fiber_ = 0;
};

}  // namespace ksr::machine
