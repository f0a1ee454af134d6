#include "ksr/sync/locks.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ksr/sync/atomic.hpp"

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

void TicketRwLock::acquire_read(machine::Cpu& cpu) {
  traced(cpu, obs::kEvLockAcquire, obs::kEvLockAcquired,
         [] { return std::uint64_t{1}; }, [&] { do_acquire_read(cpu); });
}

void TicketRwLock::acquire_write(machine::Cpu& cpu) {
  traced(cpu, obs::kEvLockAcquire, obs::kEvLockAcquired,
         [] { return std::uint64_t{0}; }, [&] { do_acquire_write(cpu); });
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
  trace_event(cpu, obs::kEvLockRelease, 1);
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
  trace_event(cpu, obs::kEvLockRelease, 0);
  lock_meta(cpu);
  advance(cpu);
  unlock_meta(cpu);
}

namespace {

using machine::Cpu;
using machine::Machine;

constexpr std::uint32_t kNil = 0xFFFFFFFFu;

// ---------------------------------------------------------------------------
// test&set (optionally with bounded exponential backoff). Every attempt is a
// hardware Atomic acquisition of one hot sub-page.
// ---------------------------------------------------------------------------
class TasLock final : public Lock {
 public:
  TasLock(Machine& m, bool backoff)
      : backoff_(backoff), word_(m, backoff ? "tasb" : "tas", 1) {}

  void do_acquire(Cpu& cpu) override {
    std::uint64_t delay = 200;  // cycles
    for (;;) {
      cpu.get_subpage(word_.addr(0));
      const std::uint32_t v = word_.read(cpu, 0);
      if (v == 0) {
        word_.write(cpu, 0, 1);
        cpu.release_subpage(word_.addr(0));
        return;
      }
      cpu.release_subpage(word_.addr(0));
      if (backoff_) {
        cpu.work(delay + cpu.rng().below(delay));
        delay = std::min<std::uint64_t>(delay * 2, 12800);
      } else {
        // Naive: spin-read until it looks free, then try again.
        spin_until(cpu, [&] { return word_.read(cpu, 0) == 0; });
      }
    }
  }

  void do_release(Cpu& cpu) override { word_.write(cpu, 0, 0); }

 private:
  bool backoff_;
  Padded<std::uint32_t> word_;
};

// ---------------------------------------------------------------------------
// Ticket lock with proportional backoff (Anderson [1] / MCS [13] style):
// FCFS; all waiters spin on one "now serving" counter — read-snarfing turns
// the refresh after each hand-off into a single ring transaction.
// ---------------------------------------------------------------------------
class TicketLock final : public Lock {
 public:
  explicit TicketLock(Machine& m)
      : next_(m, "ticket.next", 1), serving_(m, "ticket.serving", 1) {}

  void do_acquire(Cpu& cpu) override {
    const std::uint32_t me = fetch_add(cpu, next_, 0, 1u);
    for (;;) {
      const std::uint32_t s = serving_.read(cpu, 0);
      if (s == me) return;
      // Proportional backoff: the further back in line, the longer the nap.
      cpu.work(50 * (me - s));
    }
  }

  void do_release(Cpu& cpu) override {
    serving_.write(cpu, 0, serving_.read(cpu, 0) + 1);
  }

 private:
  Padded<std::uint32_t> next_;
  Padded<std::uint32_t> serving_;
};

// ---------------------------------------------------------------------------
// Anderson's array lock: FCFS, each waiter spins on its own sub-page slot,
// so a hand-off invalidates exactly one spinner.
// ---------------------------------------------------------------------------
class AndersonLock final : public Lock {
 public:
  explicit AndersonLock(Machine& m)
      : nslots_(m.nproc()),
        tail_(m, "anderson.tail", 1),
        flags_(m, "anderson.flags", m.nproc(), 1),
        my_slot_(m.nproc(), 0) {
    flags_.set_value(0, 1);  // slot 0 starts granted
  }

  void do_acquire(Cpu& cpu) override {
    const std::uint32_t slot = fetch_add(cpu, tail_, 0, 1u) % nslots_;
    my_slot_[cpu.id()] = slot;
    spin_until(cpu, [&] { return flags_.read(cpu, slot) != 0; });
    flags_.write(cpu, slot, 0);  // consume the grant
  }

  void do_release(Cpu& cpu) override {
    const std::uint32_t next = (my_slot_[cpu.id()] + 1) % nslots_;
    flags_.write(cpu, next, 1);
  }

 private:
  std::uint32_t nslots_;
  Padded<std::uint32_t> tail_;
  Padded<std::uint32_t> flags_;
  std::vector<std::uint32_t> my_slot_;  // register state, host-side
};

// ---------------------------------------------------------------------------
// MCS queue lock: waiters form a linked queue; each spins on a flag in its
// own sub-page; O(1) remote traffic per hand-off. The atomic swap/CAS on the
// tail pointer is built from get_subpage, as all KSR atomics are.
// ---------------------------------------------------------------------------
class McsQueueLock final : public Lock {
 public:
  explicit McsQueueLock(Machine& m)
      : tail_(m, "mcsq.tail", 1),
        next_(m, "mcsq.next", m.nproc(), 1),
        locked_(m, "mcsq.locked", m.nproc(), 1) {
    tail_.set_value(0, kNil);
  }

  void do_acquire(Cpu& cpu) override {
    const std::uint32_t me = cpu.id();
    next_.write(cpu, me, kNil);
    locked_.write(cpu, me, 1);
    // swap(tail, me)
    cpu.get_subpage(tail_.addr(0));
    const std::uint32_t prev = tail_.read(cpu, 0);
    tail_.write(cpu, 0, me);
    cpu.release_subpage(tail_.addr(0));
    if (prev == kNil) return;  // lock was free
    next_.write(cpu, prev, me);
    spin_until(cpu, [&] { return locked_.read(cpu, me) == 0; });
  }

  void do_release(Cpu& cpu) override {
    const std::uint32_t me = cpu.id();
    if (next_.read(cpu, me) == kNil) {
      // compare&swap(tail, me -> nil)
      cpu.get_subpage(tail_.addr(0));
      if (tail_.read(cpu, 0) == me) {
        tail_.write(cpu, 0, kNil);
        cpu.release_subpage(tail_.addr(0));
        return;
      }
      cpu.release_subpage(tail_.addr(0));
      // A successor is in the middle of linking in: wait for it.
      spin_until(cpu, [&] { return next_.read(cpu, me) != kNil; });
    }
    locked_.write(cpu, next_.read(cpu, me), 0);
  }

 private:
  Padded<std::uint32_t> tail_;
  Padded<std::uint32_t> next_;
  Padded<std::uint32_t> locked_;
};

struct LockName {
  std::string_view spelling;  // lock_kind_named
  std::string_view label;     // to_string
};

// In LockKind order.
constexpr LockName kLockNames[] = {
    {"hw", "hardware"},      {"rw", "read-write"},
    {"tas", "test&set"},     {"tas-backoff", "test&set+backoff"},
    {"ticket", "ticket"},    {"anderson", "anderson"},
    {"mcs-queue", "mcs-queue"}};

/// Every cell runs `ops` critical sections (`section` acquires, holds and
/// releases), each followed by the shape's delay; the latest finish time.
template <typename Section>
double time_sections(Machine& m, int ops, const LockSection& shape,
                     Section section) {
  double t = 0;
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < ops; ++i) {
      section(cpu);
      cpu.work(shape.delay +
               (shape.jitter == 0 ? 0 : cpu.rng().below(shape.jitter)));
    }
    if (cpu.seconds() > t) t = cpu.seconds();
  });
  return t;
}

}  // namespace

std::string_view to_string(LockKind k) noexcept {
  return kLockNames[static_cast<std::size_t>(k)].label;
}

LockKind lock_kind_named(std::string_view name) {
  std::string names;
  for (std::size_t k = 0; k < std::size(kLockNames); ++k) {
    if (kLockNames[k].spelling == name) return static_cast<LockKind>(k);
    if (!names.empty()) names += '|';
    names += kLockNames[k].spelling;
  }
  throw std::invalid_argument("unknown lock kind '" + std::string(name) +
                              "' (" + names + ")");
}

std::unique_ptr<Lock> make_lock(Machine& m, LockKind kind) {
  switch (kind) {
    case LockKind::kHardware:
      return std::make_unique<HardwareLock>(m);
    case LockKind::kReadWrite:
      break;
    case LockKind::kTestAndSet:
      return std::make_unique<TasLock>(m, false);
    case LockKind::kTestAndSetBackoff:
      return std::make_unique<TasLock>(m, true);
    case LockKind::kTicket:
      return std::make_unique<TicketLock>(m);
    case LockKind::kAnderson:
      return std::make_unique<AndersonLock>(m);
    case LockKind::kMcsQueue:
      return std::make_unique<McsQueueLock>(m);
  }
  throw std::invalid_argument(
      "make_lock: the read-write lock is TicketRwLock, not an exclusive Lock");
}

double lock_seconds(Machine& m, LockKind kind, int ops,
                    const LockSection& shape, unsigned read_pct) {
  if (kind == LockKind::kReadWrite) {
    TicketRwLock lock(m);
    return time_sections(m, ops, shape, [&](Cpu& cpu) {
      if (cpu.rng().below(100) < read_pct) {
        lock.acquire_read(cpu);
        cpu.work(shape.hold);
        lock.release_read(cpu);
      } else {
        lock.acquire_write(cpu);
        cpu.work(shape.hold);
        lock.release_write(cpu);
      }
    });
  }
  const std::unique_ptr<Lock> lock = make_lock(m, kind);
  return time_sections(m, ops, shape, [&](Cpu& cpu) {
    lock->acquire(cpu);
    cpu.work(shape.hold);
    lock->release(cpu);
  });
}

}  // namespace ksr::sync
