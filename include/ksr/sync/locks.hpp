#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ksr/machine/machine.hpp"
#include "ksr/sync/padded.hpp"

// The two lock families compared in §3.2.1 / Fig. 3.
namespace ksr::sync {

/// The naive hardware lock: get_subpage held for the whole critical section.
/// No FCFS guarantee (losers retry over the ring); forward progress only.
class HardwareLock {
 public:
  explicit HardwareLock(machine::Machine& m, std::string_view name = "hwlock")
      : word_(m, name, 1) {}

  void acquire(machine::Cpu& cpu) {
    obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id());
    if (tr == nullptr) {
      cpu.get_subpage(word_.addr(0));
      return;
    }
    const sim::Time t0 = cpu.now();
    tr->log(t0, obs::kCatSync, obs::kEvLockAcquire, 0, cpu.id());
    cpu.get_subpage(word_.addr(0));
    tr->log(cpu.now(), obs::kCatSync, obs::kEvLockAcquired, 0, cpu.id(),
            static_cast<std::int64_t>(cpu.now() - t0));
  }
  void release(machine::Cpu& cpu) {
    cpu.release_subpage(word_.addr(0));
    if (obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id())) {
      tr->log(cpu.now(), obs::kCatSync, obs::kEvLockRelease, 0, cpu.id());
    }
  }

 private:
  Padded<std::uint32_t> word_;
};

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

/// Every lock the Fig. 3 workload can time: the paper's two (the hardware
/// lock and the ticket read-write lock), then the spin-lock family of
/// ksr/sync/spinlocks.hpp in SpinLockKind's order.
enum class LockKind {
  kHardware, kReadWrite, kTestAndSet, kTestAndSetBackoff, kTicket, kAnderson,
  kMcsQueue
};

/// The kind a command-line spelling names:
/// hw|rw|tas|tas-backoff|ticket|anderson|mcs-queue. Throws
/// std::invalid_argument listing every spelling on an unknown name.
[[nodiscard]] LockKind lock_kind_named(std::string_view name);

/// The Fig. 3 experiment (paper footnote 4): simulated seconds until every
/// cell of `m` has done `ops` operations on one lock of `kind`, each holding
/// it for 3000 local operations and waiting 10000 before the next request.
/// A kReadWrite operation is a read with probability `read_pct`%, else a
/// write; the other kinds ignore `read_pct`.
[[nodiscard]] double lock_seconds(machine::Machine& m, LockKind kind, int ops,
                                  unsigned read_pct = 0);

}  // namespace ksr::sync
