#include "ksr/sync/locks.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

#include "ksr/sync/atomic.hpp"
#include "ksr/sync/spinlocks.hpp"

namespace ksr::sync {

// Ticket-queue invariant: at most one ticket per processor is outstanding,
// so ticket % kBatchSlots never collides while a batch is pending.

TicketRwLock::TicketRwLock(machine::Machine& m, std::string_view name,
                           bool use_poststore)
    : meta_(m.alloc<std::uint32_t>(std::string(name) + ".meta", kFieldCount)),
      batch_readers_(
          m.alloc<std::uint32_t>(std::string(name) + ".batches", kBatchSlots)),
      serving_pub_(m, std::string(name) + ".serving", 1),
      use_poststore_(use_poststore && m.config().has_poststore) {}

void TicketRwLock::lock_meta(machine::Cpu& cpu) {
  cpu.get_subpage(meta_.addr(0));
}

void TicketRwLock::unlock_meta(machine::Cpu& cpu) {
  cpu.release_subpage(meta_.addr(0));
}

void TicketRwLock::advance(machine::Cpu& cpu) {
  const std::uint32_t serving = cpu.read(meta_, kServing) + 1;
  cpu.write(meta_, kServing, serving);
  serving_pub_.write_post(cpu, 0, serving, use_poststore_);
  // If the newly served ticket is a pending read batch, activate it.
  const std::uint32_t cnt = cpu.read(batch_readers_, serving % kBatchSlots);
  if (cnt > 0) {
    cpu.write(meta_, kActiveReaders, cnt);
    cpu.write(batch_readers_, serving % kBatchSlots, 0);
  }
}

namespace {

/// Bracket an acquisition with sync/lock-acquire + lock-acquired events.
template <typename Body>
void traced_acquire(machine::Cpu& cpu, std::uint64_t subject, Body body) {
  obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id());
  if (tr == nullptr) {
    body();
    return;
  }
  const sim::Time t0 = cpu.now();
  tr->log(t0, obs::kCatSync, obs::kEvLockAcquire, subject, cpu.id());
  body();
  tr->log(cpu.now(), obs::kCatSync, obs::kEvLockAcquired, subject, cpu.id(),
          static_cast<std::int64_t>(cpu.now() - t0));
}

void traced_release(machine::Cpu& cpu, std::uint64_t subject) {
  if (obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id())) {
    tr->log(cpu.now(), obs::kCatSync, obs::kEvLockRelease, subject, cpu.id());
  }
}

}  // namespace

void TicketRwLock::acquire_read(machine::Cpu& cpu) {
  traced_acquire(cpu, 1, [&] { do_acquire_read(cpu); });
}

void TicketRwLock::acquire_write(machine::Cpu& cpu) {
  traced_acquire(cpu, 0, [&] { do_acquire_write(cpu); });
}

void TicketRwLock::do_acquire_read(machine::Cpu& cpu) {
  lock_meta(cpu);
  const std::uint32_t serving = cpu.read(meta_, kServing);
  std::uint32_t my_ticket;
  if (cpu.read(meta_, kTailIsRead) != 0 &&
      cpu.read(meta_, kTailTicket) >= serving) {
    // Combine with the tail read batch.
    my_ticket = cpu.read(meta_, kTailTicket);
    if (my_ticket == serving) {
      // The batch already holds the lock: join immediately.
      cpu.write(meta_, kActiveReaders, cpu.read(meta_, kActiveReaders) + 1);
      unlock_meta(cpu);
      return;
    }
    cpu.write(batch_readers_, my_ticket % kBatchSlots,
              cpu.read(batch_readers_, my_ticket % kBatchSlots) + 1);
  } else {
    my_ticket = cpu.read(meta_, kNextTicket);
    cpu.write(meta_, kNextTicket, my_ticket + 1);
    cpu.write(meta_, kTailIsRead, 1);
    cpu.write(meta_, kTailTicket, my_ticket);
    if (my_ticket == serving) {
      // Lock is free: the batch starts right now.
      cpu.write(meta_, kActiveReaders, 1);
      unlock_meta(cpu);
      return;
    }
    cpu.write(batch_readers_, my_ticket % kBatchSlots, 1);
  }
  unlock_meta(cpu);
  spin_until(cpu, [&] { return serving_pub_.read(cpu, 0) >= my_ticket; });
}

void TicketRwLock::release_read(machine::Cpu& cpu) {
  traced_release(cpu, 1);
  lock_meta(cpu);
  const std::uint32_t active = cpu.read(meta_, kActiveReaders) - 1;
  cpu.write(meta_, kActiveReaders, active);
  if (active == 0) {
    // Close the batch so later readers start a fresh ticket, then hand on.
    if (cpu.read(meta_, kTailIsRead) != 0 &&
        cpu.read(meta_, kTailTicket) == cpu.read(meta_, kServing)) {
      cpu.write(meta_, kTailIsRead, 0);
    }
    advance(cpu);
  }
  unlock_meta(cpu);
}

void TicketRwLock::do_acquire_write(machine::Cpu& cpu) {
  lock_meta(cpu);
  const std::uint32_t my_ticket = cpu.read(meta_, kNextTicket);
  cpu.write(meta_, kNextTicket, my_ticket + 1);
  cpu.write(meta_, kTailIsRead, 0);
  unlock_meta(cpu);
  spin_until(cpu, [&] { return serving_pub_.read(cpu, 0) >= my_ticket; });
}

void TicketRwLock::release_write(machine::Cpu& cpu) {
  traced_release(cpu, 0);
  lock_meta(cpu);
  advance(cpu);
  unlock_meta(cpu);
}

namespace {

// The spin kinds map onto SpinLockKind by offset.
static_assert(static_cast<int>(LockKind::kMcsQueue) -
                  static_cast<int>(LockKind::kTestAndSet) ==
              static_cast<int>(SpinLockKind::kMcsQueue));

// In LockKind order.
constexpr std::string_view kLockNames[] = {
    "hw", "rw", "tas", "tas-backoff", "ticket", "anderson", "mcs-queue"};

constexpr std::uint64_t kHoldCycles = 3000 * 2;    // 3000 local ops held
constexpr std::uint64_t kDelayCycles = 10000 * 2;  // 10000 between requests

/// Every cell runs `ops` critical sections (`section` acquires, holds and
/// releases), each followed by the delay; the latest finish time.
template <typename Section>
double time_sections(machine::Machine& m, int ops, Section section) {
  double t = 0;
  m.run([&](machine::Cpu& cpu) {
    for (int i = 0; i < ops; ++i) {
      section(cpu);
      cpu.work(kDelayCycles);
    }
    if (cpu.seconds() > t) t = cpu.seconds();
  });
  return t;
}

}  // namespace

LockKind lock_kind_named(std::string_view name) {
  std::string names;
  for (std::size_t k = 0; k < std::size(kLockNames); ++k) {
    if (kLockNames[k] == name) return static_cast<LockKind>(k);
    if (!names.empty()) names += '|';
    names += kLockNames[k];
  }
  throw std::invalid_argument("unknown lock kind '" + std::string(name) +
                              "' (" + names + ")");
}

double lock_seconds(machine::Machine& m, LockKind kind, int ops,
                    unsigned read_pct) {
  auto exclusive = [&](auto& lock) {
    return time_sections(m, ops, [&](machine::Cpu& cpu) {
      lock.acquire(cpu);
      cpu.work(kHoldCycles);
      lock.release(cpu);
    });
  };
  if (kind == LockKind::kHardware) {
    HardwareLock lock(m);
    return exclusive(lock);
  }
  if (kind == LockKind::kReadWrite) {
    TicketRwLock lock(m);
    return time_sections(m, ops, [&](machine::Cpu& cpu) {
      if (cpu.rng().below(100) < read_pct) {
        lock.acquire_read(cpu);
        cpu.work(kHoldCycles);
        lock.release_read(cpu);
      } else {
        lock.acquire_write(cpu);
        cpu.work(kHoldCycles);
        lock.release_write(cpu);
      }
    });
  }
  return exclusive(*make_spinlock(
      m, static_cast<SpinLockKind>(static_cast<int>(kind) -
                                   static_cast<int>(LockKind::kTestAndSet))));
}

}  // namespace ksr::sync
