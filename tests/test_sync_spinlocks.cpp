// Correctness of every exclusive lock (the hardware lock and the classic
// spin-lock family) through the Lock interface on all machine models:
// mutual exclusion under contention (parameterized sweep), FCFS for the
// queue-based locks, and the qualitative traffic ordering on the ring.
#include <gtest/gtest.h>

#include <string>

#include "ksr/machine/factory.hpp"
#include "ksr/sync/locks.hpp"

namespace ksr::sync {
namespace {

using machine::Cpu;
using machine::MachineConfig;
using machine::MachineKind;

struct Param {
  LockKind kind;
  MachineKind machine;
  unsigned nproc;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string n{to_string(info.param.kind)};
  n += "_";
  n += machine::to_string(info.param.machine);
  n += "_p" + std::to_string(info.param.nproc);
  for (auto& c : n) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n;
}

MachineConfig config_for(MachineKind k, unsigned p) {
  switch (k) {
    case MachineKind::kKsr1: return MachineConfig::ksr1(p);
    case MachineKind::kKsr2: return MachineConfig::ksr2(p);
    case MachineKind::kSymmetry: return MachineConfig::symmetry(p);
    case MachineKind::kButterfly: return MachineConfig::butterfly(p);
  }
  return MachineConfig::ksr1(p);
}

class SpinLockCorrectness : public testing::TestWithParam<Param> {};

TEST_P(SpinLockCorrectness, MutualExclusionAndNoLostUpdates) {
  const Param p = GetParam();
  auto m = machine::make_machine(config_for(p.machine, p.nproc));
  auto lock = make_lock(*m, p.kind);
  auto data = m->alloc<int>("data", 2);  // counter + in-section flag
  bool overlap = false;
  constexpr int kOps = 12;
  m->run([&](Cpu& cpu) {
    for (int i = 0; i < kOps; ++i) {
      lock->acquire(cpu);
      if (cpu.read(data, 1) != 0) overlap = true;
      cpu.write(data, 1, 1);
      cpu.write(data, 0, cpu.read(data, 0) + 1);
      cpu.work(250);
      cpu.write(data, 1, 0);
      lock->release(cpu);
      cpu.work(cpu.rng().below(900));
    }
  });
  EXPECT_FALSE(overlap);
  EXPECT_EQ(data.value(0), static_cast<int>(p.nproc) * kOps);
}

std::vector<Param> params_for(MachineKind machine,
                              std::initializer_list<unsigned> procs) {
  std::vector<Param> out;
  for (LockKind k : {LockKind::kHardware, LockKind::kTestAndSet,
                     LockKind::kTestAndSetBackoff, LockKind::kTicket,
                     LockKind::kAnderson, LockKind::kMcsQueue}) {
    for (unsigned p : procs) out.push_back({k, machine, p});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Ksr1, SpinLockCorrectness,
    testing::ValuesIn(params_for(MachineKind::kKsr1, {1u, 2u, 5u, 8u})),
    param_name);
INSTANTIATE_TEST_SUITE_P(
    Symmetry, SpinLockCorrectness,
    testing::ValuesIn(params_for(MachineKind::kSymmetry, {4u})), param_name);
INSTANTIATE_TEST_SUITE_P(
    Butterfly, SpinLockCorrectness,
    testing::ValuesIn(params_for(MachineKind::kButterfly, {4u})), param_name);

// FCFS: ticket, Anderson and MCS-queue grant strictly in arrival order.
class SpinLockFcfs : public testing::TestWithParam<LockKind> {};

TEST_P(SpinLockFcfs, GrantsInArrivalOrder) {
  machine::KsrMachine m(MachineConfig::ksr1(5));
  auto lock = make_lock(m, GetParam());
  auto order = m.alloc<int>("order", 8);
  m.run([&](Cpu& cpu) {
    cpu.work(30000 * (cpu.id() + 1));  // unambiguous staggered arrivals
    lock->acquire(cpu);
    const int k = cpu.read(order, 0);
    cpu.write(order, 0, k + 1);
    cpu.write(order, static_cast<std::size_t>(1 + k),
              static_cast<int>(cpu.id()));
    cpu.work(120000);  // hold long enough that everyone queues behind
    lock->release(cpu);
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order.value(static_cast<std::size_t>(1 + i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(QueueLocks, SpinLockFcfs,
                         testing::Values(LockKind::kTicket,
                                         LockKind::kAnderson,
                                         LockKind::kMcsQueue),
                         [](const testing::TestParamInfo<LockKind>& i) {
                           std::string n{to_string(i.param)};
                           for (auto& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// Qualitative claim behind the MCS paper: per-hand-off interconnect traffic
// is bounded for queue locks but grows with waiters for naive test&set.
TEST(SpinLockTraffic, QueueLockBeatsNaiveTasUnderContention) {
  auto ring_requests = [](LockKind kind) {
    machine::KsrMachine m(MachineConfig::ksr1(8));
    auto lock = make_lock(m, kind);
    const auto res = m.run([&](Cpu& cpu) {
      for (int i = 0; i < 10; ++i) {
        lock->acquire(cpu);
        cpu.work(400);
        lock->release(cpu);
        cpu.work(cpu.rng().below(400));
      }
    });
    return res.pmon.ring_requests + res.pmon.ring_nacks;
  };
  EXPECT_LT(ring_requests(LockKind::kMcsQueue),
            ring_requests(LockKind::kTestAndSet));
}

}  // namespace
}  // namespace ksr::sync
