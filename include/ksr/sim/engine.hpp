#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "ksr/sim/callback.hpp"
#include "ksr/sim/event_heap.hpp"
#include "ksr/sim/fiber_context.hpp"
#include "ksr/sim/time.hpp"
#include "ksr/sim/zeroed_array.hpp"

#if !KSR_HAVE_FAST_FIBERS
#include <ucontext.h>
#endif

// Deterministic discrete-event engine with cooperative fibers.
//
// Simulated processors run their programs on cooperative fibers. The engine
// owns a single event queue ordered by (time, insertion sequence); ties
// broken by sequence make every run bit-reproducible. Exactly one fiber runs
// at a time (the whole simulator is single-threaded), so simulated programs
// need no host-level synchronization.
//
// Host fast path: callback events carry an InlineFn (no allocation for
// engine-sized captures) in a sorted-lane event queue with a 4-ary heap
// overflow (see event_heap.hpp); fiber-resume events (spawn, wake,
// wait_until) carry only the fiber id.
// Fiber switches use a hand-rolled register swap instead of swapcontext when
// KSR_FAST_FIBERS is on (see fiber_context.hpp). None of this changes
// simulated timing by a cycle.
//
// An event is dispatched along one of three paths, all in the same
// (time, seq) order and each counted once in events_dispatched():
//   * scheduler — run_until() pops the event, drains due observers, and
//     either invokes the callback or switches into the fiber;
//   * self      — a parking fiber whose own wake sorts first keeps running
//     (no switch at all);
//   * handoff   — a parking fiber whose successor is another fiber's resume
//     event switches straight into that fiber, skipping the scheduler.
// The self and handoff paths are taken only when the scheduler would do
// exactly the same: they are off for an event at or past the current
// run_until() horizon, when an observer is due at or before the event, for
// a callback event, and for a fiber that has already finished. A finishing
// fiber always returns to the scheduler, which releases its stack.
//
// A fiber interacts with simulated time through three verbs:
//   * wait_until(t) — park until simulated time t (local compute, fixed-cost
//     cache access, backoff).
//   * block()       — park indefinitely; some component completes the fiber's
//     transaction later and calls wake().
//   * the engine-level at()/in() — schedule an arbitrary callback (used by
//     the interconnect models for slot ticks and packet delivery).
namespace ksr::sim {

/// Identifies a fiber spawned on an Engine. Stable for the engine's lifetime.
using FiberId = std::uint32_t;

class Engine {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Engine() { events_.reserve(1024); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time: the timestamp of the event being dispatched.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (>= now()).
  void at(Time t, InlineFn fn);

  /// Schedule `fn` after duration `d`.
  void in(Duration d, InlineFn fn) { at(now_ + d, std::move(fn)); }

  /// Schedule a host-side *observer* callback at simulated time `t`. The
  /// observer lane is a second queue drained just before the main event at
  /// or after `t` dispatches: observers never count toward
  /// events_dispatched(), never perturb the main queue's (time, seq) order,
  /// and must not mutate simulated state — they exist so instrumentation
  /// (e.g. obs::MetricsRegistry sampling on the simulated clock) is
  /// non-perturbing by construction. Observers still pending when the main
  /// queue drains are dropped without running (take a final sample
  /// explicitly instead of relying on one).
  void observe_at(Time t, InlineFn fn);

  /// observe_at(now() + d, fn).
  void observe_in(Duration d, InlineFn fn) { observe_at(now_ + d, std::move(fn)); }

  /// Create a fiber that starts running at time `start`.
  FiberId spawn(std::function<void()> body, Time start = 0,
                std::size_t stack_bytes = kDefaultStackBytes);

  /// Dispatch events until the queue drains. Throws if fibers are still
  /// blocked when the queue empties (simulated deadlock), or rethrows the
  /// first exception escaping a fiber body.
  void run();

  /// Dispatch every event with time < `horizon`, then return (leaving later
  /// events, pending observers, and blocked fibers untouched). This is the
  /// quantum slice primitive of ParallelEngine: a conservative quantum
  /// advances each domain with run_until(quantum_end), merges boundary
  /// events, and repeats. Dispatch order within the slice is exactly the
  /// (time, seq) order run() would use, so slicing a run into any sequence
  /// of horizons is bit-identical to one run() — finish_run() supplies
  /// run()'s end-of-run checks once the last slice is done.
  void run_until(Time horizon);

  /// End-of-run bookkeeping shared by run() and the quantum loop: drops
  /// (without running) observers scheduled past the last main event and
  /// throws if fibers are still blocked (simulated deadlock). Call after
  /// the final run_until() slice; run() calls it internally.
  void finish_run();

  /// --- Fiber-side API (must be called from inside a running fiber). ---

  /// Park the current fiber until simulated time `t`.
  void wait_until(Time t);

  /// Park the current fiber until some component calls wake() on it.
  void block();

  /// Wake a blocked fiber at time `t` (>= now()). Throws std::logic_error if
  /// the fiber's body has already returned — waking a finished fiber is
  /// always a component bug, not a race to be ignored.
  void wake(FiberId id, Time t);

  /// True when called from inside a fiber body.
  [[nodiscard]] bool in_fiber() const noexcept { return current_ != nullptr; }

  /// Id of the currently running fiber. Only valid when in_fiber().
  [[nodiscard]] FiberId current_fiber() const noexcept;

  /// Earliest pending event time, or the sentinel Time maximum when idle.
  [[nodiscard]] Time next_event_time() const noexcept {
    return events_.empty() ? std::numeric_limits<Time>::max()
                           : events_.top().t;
  }

  /// Number of spawned fibers whose bodies have not yet returned.
  [[nodiscard]] std::size_t live_fibers() const noexcept { return live_fibers_; }

  /// Total events dispatched so far (host-side instrumentation).
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept { return dispatched_; }

  /// Schedule fuzzing (ksrfuzz, docs/CHECKING.md): when `seed` is nonzero,
  /// same-time ties in the main event lane are broken by a seeded bijective
  /// hash of the insertion sequence instead of the sequence itself. Every
  /// legal interleaving constraint (time order) is preserved — only the
  /// arbitrary tie order moves — and a given seed is fully deterministic.
  /// Set before scheduling any events; 0 restores insertion order.
  void set_tie_break_seed(std::uint64_t seed) noexcept { fuzz_seed_ = seed; }
  [[nodiscard]] std::uint64_t tie_break_seed() const noexcept {
    return fuzz_seed_;
  }

  /// True when this build switches fibers with the hand-rolled register
  /// swap rather than swapcontext (host-performance introspection).
  [[nodiscard]] static constexpr bool fast_fibers() noexcept {
    return KSR_HAVE_FAST_FIBERS != 0;
  }

  /// --- Checkpoint support (docs/CHECKPOINT.md). ---

  /// True when the engine holds no simulated state that would have to be
  /// serialized mid-flight: no pending events or observers, and every
  /// spawned fiber's body has returned. Between run() calls on a finished
  /// workload this is always true; a checkpoint is only legal then.
  [[nodiscard]] bool quiescent() const noexcept {
    return live_fibers_ == 0 && events_.empty() && observers_.empty();
  }

  /// Clock snapshot for checkpointing: current time, insertion sequence,
  /// and dispatched-event count. Only meaningful while quiescent().
  struct ClockState {
    Time now = 0;
    std::uint64_t seq = 0;
    std::uint64_t dispatched = 0;
  };
  [[nodiscard]] ClockState clock_state() const noexcept {
    return {now_, seq_, dispatched_};
  }

  /// Restore a clock snapshot taken by clock_state(). The engine must be
  /// quiescent (no events to re-time); subsequent at()/spawn() calls see
  /// the restored time and sequence, so a restored run schedules with
  /// exactly the (time, seq) keys the uninterrupted run would have used.
  void restore_clock_state(const ClockState& s) noexcept {
    now_ = s.now;
    seq_ = s.seq;
    dispatched_ = s.dispatched;
  }

  /// Fibers ever spawned on this engine. Spawn ids are assigned from this
  /// count, and ids continue across run() calls on a live machine — so a
  /// restored engine must resume the same numbering.
  [[nodiscard]] std::size_t fibers_spawned() const noexcept {
    return fibers_.size();
  }

  /// Pad the fiber table with completed placeholders until `n` fibers have
  /// "been spawned", so the next spawn() gets the same FiberId the
  /// uninterrupted run would have assigned. Placeholders hold no stack and
  /// can never be woken (wake() on a done fiber throws, as always).
  void restore_fibers_spawned(std::size_t n) {
    while (fibers_.size() < n) {
      auto f = std::make_unique<Fiber>();
      f->done = true;
      f->engine = this;
      f->id = static_cast<FiberId>(fibers_.size());
      fibers_.push_back(std::move(f));
    }
  }

 private:
  struct Fiber {
    std::function<void()> body;
    ZeroedArray<std::byte> stack;
#if KSR_HAVE_FAST_FIBERS
    void* sp = nullptr;  // saved stack pointer while suspended
#else
    ucontext_t ctx{};
#endif
    bool started = false;
    bool done = false;
    Engine* engine = nullptr;
    FiberId id = 0;
  };

  // Queue entries are 24 bytes: the callback lives in a slab pool,
  // addressed by slot, so shifts and sifts move small trivially-copyable
  // records and never touch (or move) the callbacks themselves. Slots are
  // recycled through a freelist — after warm-up the schedule path allocates
  // nothing. A fiber-resume event owns no slot: `slot` holds
  // kFiberTag | fiber id.
  static constexpr std::uint32_t kFiberTag = 0x8000'0000u;
  struct Event {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // (t, seq) as one 128-bit key: a branch-free compare lets the lane's
  // binary search and the heap's min-child scan compile to conditional moves.
  struct EventEarlier {
    bool operator()(const Event& a, const Event& b) const noexcept {
      using Key = unsigned __int128;
      return (Key{a.t} << 64 | a.seq) < (Key{b.t} << 64 | b.seq);
    }
  };

#if KSR_HAVE_FAST_FIBERS
  static void fiber_main(void* arg);
#else
  static void trampoline(unsigned hi, unsigned lo);
#endif
  // Save the running context into `from` and enter `to` (nullptr stands for
  // the scheduler on either side), starting `to` on its first entry.
  void swap(Fiber* from, Fiber* to);
  // Scheduler side: enter `f` and clean up whichever fiber comes back.
  void resume(Fiber& f);
  // Fiber side: park the current fiber, after pushing its own resume event
  // `own` if any, and run the next event by one of the three paths.
  void handoff(const Event* own);
  // (t, seq) key for a new main-lane event; throws if t < now().
  Event keyed(Time t, std::uint32_t slot);

  Time now_ = 0;
  Time horizon_ = 0;  // of the run_until() in progress
  std::uint64_t seq_ = 0;
  std::uint64_t observer_seq_ = 0;  // see observe_at()
  std::uint64_t fuzz_seed_ = 0;  // see set_tie_break_seed()
  std::uint64_t dispatched_ = 0;
  // Callback slab: fixed-size chunks give every slot a stable address, so a
  // callback can be invoked in place even while it schedules new events
  // (which may grow the chunk table but never moves existing slots).
  static constexpr std::uint32_t kPoolChunk = 256;  // slots per chunk
  InlineFn& pool_slot(std::uint32_t s) noexcept {
    return pool_[s / kPoolChunk][s % kPoolChunk];
  }

  std::uint32_t claim_slot(InlineFn fn);
  void drain_observers(Time horizon);

  EventQueue<Event, EventEarlier, 4> events_;
  EventQueue<Event, EventEarlier, 4> observers_;  // see observe_at()
  std::vector<std::unique_ptr<InlineFn[]>> pool_;  // chunked callback slots
  std::vector<std::uint32_t> free_slots_;          // recycled pool slots
  std::uint32_t pool_used_ = 0;                    // slots ever allocated
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::size_t live_fibers_ = 0;
  Fiber* current_ = nullptr;
#if KSR_HAVE_FAST_FIBERS
  void* sched_sp_ = nullptr;  // scheduler context while a fiber runs
#else
  ucontext_t sched_ctx_{};
#endif
  std::exception_ptr pending_exception_;
};

}  // namespace ksr::sim
