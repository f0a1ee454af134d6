#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "ksr/machine/machine.hpp"
#include "ksr/sync/padded.hpp"
#include "ksr/sync/trace.hpp"

// The locks of §3.2.1 / Fig. 3 — the naive hardware lock and the paper's
// read-write ticket lock — and the classic spin-lock alternatives of
// Anderson [1] and Mellor-Crummey/Scott [13], which the paper cites and
// builds its read-write lock from:
//
//   test&set            — one hot sub-page, hardware Atomic state per try;
//   test&set w/ backoff — same, with bounded exponential backoff;
//   ticket              — FCFS; spins on a hot "now serving" counter
//                         (read-snarfing makes the refresh cheap on KSR);
//   Anderson array      — FCFS; each waiter spins on its OWN slot
//                         (one sub-page per slot: no hot spot);
//   MCS queue           — FCFS; waiters form a linked queue, each spinning
//                         on a flag in its own sub-page; O(1) traffic per
//                         hand-off even without coherent broadcast.
namespace ksr::sync {

/// Every lock the simulator models: the paper's two, then the spin-lock
/// family.
enum class LockKind {
  kHardware, kReadWrite, kTestAndSet, kTestAndSetBackoff, kTicket, kAnderson,
  kMcsQueue
};

/// The table label of `k`: hardware, read-write, test&set,
/// test&set+backoff, ticket, anderson, mcs-queue.
[[nodiscard]] std::string_view to_string(LockKind k) noexcept;

/// The kind a command-line spelling names:
/// hw|rw|tas|tas-backoff|ticket|anderson|mcs-queue. Throws
/// std::invalid_argument listing every spelling on an unknown name.
[[nodiscard]] LockKind lock_kind_named(std::string_view name);

/// An exclusive lock. With a tracer attached, acquisition is bracketed with
/// sync/lock-acquire (start of the attempt) and lock-acquired (lock held;
/// detail = wait ns); release logs lock-release once the lock is free.
class Lock {
 public:
  virtual ~Lock() = default;
  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

  void acquire(machine::Cpu& cpu) {
    traced(cpu, obs::kEvLockAcquire, obs::kEvLockAcquired,
           [] { return std::uint64_t{0}; }, [&] { do_acquire(cpu); });
  }
  void release(machine::Cpu& cpu) {
    do_release(cpu);
    trace_event(cpu, obs::kEvLockRelease, 0);
  }

 protected:
  Lock() = default;

  virtual void do_acquire(machine::Cpu& cpu) = 0;
  virtual void do_release(machine::Cpu& cpu) = 0;
};

/// The naive hardware lock: get_subpage held for the whole critical section.
/// No FCFS guarantee (losers retry over the ring); forward progress only.
class HardwareLock final : public Lock {
 public:
  explicit HardwareLock(machine::Machine& m, std::string_view name = "hwlock")
      : word_(m, name, 1) {}

 private:
  void do_acquire(machine::Cpu& cpu) override {
    cpu.get_subpage(word_.addr(0));
  }
  void do_release(machine::Cpu& cpu) override {
    cpu.release_subpage(word_.addr(0));
  }

  Padded<std::uint32_t> word_;
};

/// Build an exclusive lock of `kind` sized for all cells of `m`. Throws
/// std::invalid_argument for kReadWrite, which is TicketRwLock.
[[nodiscard]] std::unique_ptr<Lock> make_lock(machine::Machine& m,
                                              LockKind kind);

/// The paper's software read-write lock: a modified Anderson ticket lock.
/// Tickets are granted atomically (via get_subpage on the metadata
/// sub-page); consecutive read requests combine onto one ticket so readers
/// share the lock; writers wait for all readers; strict FCFS by ticket.
class TicketRwLock {
 public:
  /// `use_poststore`: push serving-counter updates to spinners (KSR only).
  explicit TicketRwLock(machine::Machine& m, std::string_view name = "rwlock",
                        bool use_poststore = true);

  // Tracing: acquisitions log sync/lock-acquire + lock-acquired, releases
  // lock-release (subject: 1 = read side, 0 = write side).
  void acquire_read(machine::Cpu& cpu);
  void release_read(machine::Cpu& cpu);
  void acquire_write(machine::Cpu& cpu);
  void release_write(machine::Cpu& cpu);

 private:
  void do_acquire_read(machine::Cpu& cpu);
  void do_acquire_write(machine::Cpu& cpu);
  // All metadata fields live on ONE sub-page guarded by get_subpage; the
  // public serving counter spins on its own sub-page.
  enum Field : std::size_t {
    kNextTicket = 0,
    kServing = 1,  // authoritative copy (under the meta lock)
    kTailIsRead = 2,
    kTailTicket = 3,
    kActiveReaders = 4,
    kFieldCount = 5,
  };

  // Reader count of each *pending* read-batch ticket, indexed by
  // ticket % kBatchSlots (at most one outstanding ticket per processor, so
  // 64 slots never collide). Nonzero iff that ticket is a read batch.
  static constexpr std::size_t kBatchSlots = 64;

  void lock_meta(machine::Cpu& cpu);
  void unlock_meta(machine::Cpu& cpu);
  /// Advance serving past a fully released ticket; caller holds meta.
  void advance(machine::Cpu& cpu);

  mem::SharedArray<std::uint32_t> meta_;  // kFieldCount words, one sub-page
  mem::SharedArray<std::uint32_t> batch_readers_;  // kBatchSlots words
  Padded<std::uint32_t> serving_pub_;              // spin target
  bool use_poststore_;
};

/// The shape of one lock_seconds operation, in cycles: hold the lock for
/// `hold`, then wait `delay` plus a uniform draw below `jitter` (no draw
/// when 0) before the next request.
struct LockSection {
  std::uint64_t hold = 0;
  std::uint64_t delay = 0;
  std::uint64_t jitter = 0;
};

/// Paper footnote 4: the lock is held for 3000 local operations and
/// requests are 10000 apart (2 cycles each).
inline constexpr LockSection kFig3Section{3000 * 2, 10000 * 2, 0};

/// Simulated seconds until every cell of `m` has done `ops` operations of
/// `shape` on one lock of `kind` (the Fig. 3 experiment with kFig3Section).
/// A kReadWrite operation is a read with probability `read_pct`%, else a
/// write; the other kinds ignore `read_pct`.
[[nodiscard]] double lock_seconds(machine::Machine& m, LockKind kind, int ops,
                                  const LockSection& shape,
                                  unsigned read_pct = 0);

}  // namespace ksr::sync
