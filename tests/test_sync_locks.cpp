// Lock correctness: mutual exclusion, reader sharing, writer exclusion,
// FCFS ordering of the ticket lock, and the qualitative Fig. 3 shape.
#include <gtest/gtest.h>

#include <cmath>

#include <stdexcept>
#include <vector>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/sync/atomic.hpp"
#include "ksr/sync/locks.hpp"

namespace ksr::sync {
namespace {

using machine::Cpu;
using machine::KsrMachine;
using machine::MachineConfig;

TEST(HardwareLock, MutualExclusionUnderContention) {
  KsrMachine m(MachineConfig::ksr1(8));
  HardwareLock lock(m);
  auto data = m.alloc<int>("data", 2);  // counter + in-section flag
  bool overlap = false;
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 25; ++i) {
      lock.acquire(cpu);
      if (cpu.read(data, 1) != 0) overlap = true;
      cpu.write(data, 1, 1);
      cpu.write(data, 0, cpu.read(data, 0) + 1);
      cpu.work(200);
      cpu.write(data, 1, 0);
      lock.release(cpu);
      cpu.work(cpu.rng().below(400));
    }
  });
  EXPECT_FALSE(overlap);
  EXPECT_EQ(data.value(0), 8 * 25);
}

TEST(TicketRwLock, WritersAreMutuallyExclusive) {
  KsrMachine m(MachineConfig::ksr1(8));
  TicketRwLock lock(m);
  auto data = m.alloc<int>("data", 2);
  bool overlap = false;
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 20; ++i) {
      lock.acquire_write(cpu);
      if (cpu.read(data, 1) != 0) overlap = true;
      cpu.write(data, 1, 1);
      cpu.write(data, 0, cpu.read(data, 0) + 1);
      cpu.work(150);
      cpu.write(data, 1, 0);
      lock.release_write(cpu);
      cpu.work(cpu.rng().below(500));
    }
  });
  EXPECT_FALSE(overlap);
  EXPECT_EQ(data.value(0), 8 * 20);
}

TEST(TicketRwLock, ReadersOverlapButExcludeWriters) {
  KsrMachine m(MachineConfig::ksr1(8));
  TicketRwLock lock(m);
  // readers_inside / writers_inside / max_concurrent_readers / violations —
  // all updated under get_subpage so the bookkeeping itself is atomic.
  auto s = m.alloc<int>("state", 4);
  auto bump = [&](Cpu& cpu, auto&& fn) {
    cpu.get_subpage(s.addr(0));
    fn();
    cpu.release_subpage(s.addr(0));
  };
  m.run([&](Cpu& cpu) {
    const bool writer = cpu.id() < 2;
    for (int i = 0; i < 10; ++i) {
      if (writer) {
        lock.acquire_write(cpu);
        bump(cpu, [&] {
          if (cpu.read(s, 0) != 0 || cpu.read(s, 1) != 0) {
            cpu.write(s, 3, cpu.read(s, 3) + 1);
          }
          cpu.write(s, 1, 1);
        });
        cpu.work(3000);
        bump(cpu, [&] { cpu.write(s, 1, 0); });
        lock.release_write(cpu);
      } else {
        lock.acquire_read(cpu);
        bump(cpu, [&] {
          if (cpu.read(s, 1) != 0) cpu.write(s, 3, cpu.read(s, 3) + 1);
          const int inside = cpu.read(s, 0) + 1;
          cpu.write(s, 0, inside);
          if (inside > cpu.read(s, 2)) cpu.write(s, 2, inside);
        });
        cpu.work(3000);
        bump(cpu, [&] { cpu.write(s, 0, cpu.read(s, 0) - 1); });
        lock.release_read(cpu);
      }
      cpu.work(cpu.rng().below(700));
    }
  });
  EXPECT_EQ(s.value(3), 0) << "reader/writer overlap detected";
  EXPECT_GT(s.value(2), 1) << "readers never actually shared the lock";
}

TEST(TicketRwLock, FcfsOrderAmongWriters) {
  // Cells acquire in a forced arrival order (staggered by compute);
  // the grant order must match the arrival order.
  KsrMachine m(MachineConfig::ksr1(6));
  TicketRwLock lock(m);
  auto order = m.alloc<int>("order", 8);
  m.run([&](Cpu& cpu) {
    cpu.work(20000 * (cpu.id() + 1));  // 1 ms apart: unambiguous arrival order
    lock.acquire_write(cpu);
    const int k = cpu.read(order, 0);
    cpu.write(order, 0, k + 1);
    cpu.write(order, static_cast<std::size_t>(1 + k), static_cast<int>(cpu.id()));
    cpu.work(100000);  // hold long enough that everyone queues behind
    lock.release_write(cpu);
  });
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(order.value(static_cast<std::size_t>(1 + i)), i);
  }
}

TEST(FetchAdd, AtomicUnderFullContention) {
  KsrMachine m(MachineConfig::ksr1(16));
  auto counter = m.alloc<std::uint32_t>("counter", 1);
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 30; ++i) {
      fetch_add(cpu, counter, 0, 1u);
      cpu.work(cpu.rng().below(300));
    }
  });
  EXPECT_EQ(counter.value(0), 16u * 30u);
}

// Fig. 3 qualitative shape at one point: with mostly-read workloads the
// software RW lock clearly beats serializing every request exclusively.
TEST(LockShape, ReadSharingBeatsExclusiveSerialization) {
  constexpr unsigned kProcs = 8;
  constexpr int kOps = 12;
  auto run_exclusive = [&] {
    KsrMachine m(MachineConfig::ksr1(kProcs));
    HardwareLock lock(m);
    double t = 0;
    m.run([&](Cpu& cpu) {
      for (int i = 0; i < kOps; ++i) {
        lock.acquire(cpu);
        cpu.work(3000);
        lock.release(cpu);
        cpu.work(10000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
    return t;
  };
  auto run_readers = [&] {
    KsrMachine m(MachineConfig::ksr1(kProcs));
    TicketRwLock lock(m);
    double t = 0;
    m.run([&](Cpu& cpu) {
      for (int i = 0; i < kOps; ++i) {
        lock.acquire_read(cpu);
        cpu.work(3000);
        lock.release_read(cpu);
        cpu.work(10000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
    return t;
  };
  EXPECT_LT(run_readers(), run_exclusive());
}

TEST(LockKindNamed, ParsesEveryCliSpelling) {
  struct Row {
    const char* spelling;
    LockKind kind;
    const char* label;
  };
  const Row table[] = {
      {"hw", LockKind::kHardware, "hardware"},
      {"rw", LockKind::kReadWrite, "read-write"},
      {"tas", LockKind::kTestAndSet, "test&set"},
      {"tas-backoff", LockKind::kTestAndSetBackoff, "test&set+backoff"},
      {"ticket", LockKind::kTicket, "ticket"},
      {"anderson", LockKind::kAnderson, "anderson"},
      {"mcs-queue", LockKind::kMcsQueue, "mcs-queue"}};
  for (const auto& [spelling, kind, label] : table) {
    EXPECT_EQ(lock_kind_named(spelling), kind) << spelling;
    EXPECT_EQ(to_string(kind), label) << spelling;
  }
  EXPECT_THROW((void)lock_kind_named("test&set"), std::invalid_argument);
}

// make_lock builds the exclusive kinds; the read-write lock has its own API.
TEST(MakeLock, ReadWriteKindIsRejected) {
  KsrMachine m(MachineConfig::ksr1(2));
  EXPECT_THROW((void)make_lock(m, LockKind::kReadWrite),
               std::invalid_argument);
}

// Every kind times the same workload: more cells contending for one lock
// never finish sooner.
TEST(LockSeconds, EveryKindSlowsWithContention) {
  for (const LockKind kind :
       {LockKind::kHardware, LockKind::kReadWrite, LockKind::kTestAndSet,
        LockKind::kTestAndSetBackoff, LockKind::kTicket, LockKind::kAnderson,
        LockKind::kMcsQueue}) {
    machine::KsrMachine one(machine::MachineConfig::ksr1(1));
    machine::KsrMachine four(machine::MachineConfig::ksr1(4));
    EXPECT_LT(lock_seconds(one, kind, 5, kFig3Section),
              lock_seconds(four, kind, 5, kFig3Section))
        << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace ksr::sync
