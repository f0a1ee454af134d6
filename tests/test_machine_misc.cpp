// Machine-level odds and ends: per-cell programs, run-result accounting,
// the Symmetry and Butterfly machines, bulk range accesses, prefetch-queue
// bounds, and configuration validation.
#include <gtest/gtest.h>

#include "ksr/machine/bus_machine.hpp"
#include "ksr/machine/butterfly_machine.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/sync/atomic.hpp"

namespace ksr::machine {
namespace {

TEST(MachineRun, DistinctProgramsPerCell) {
  KsrMachine m(MachineConfig::ksr1(3));
  auto out = m.alloc<int>("out", 3 * 32);
  std::vector<Machine::Program> programs;
  for (int k = 0; k < 3; ++k) {
    programs.emplace_back([&out, k](Cpu& cpu) {
      cpu.write(out, static_cast<std::size_t>(k) * 32, 100 + k);
      cpu.work(1000 * static_cast<std::uint64_t>(k + 1));
    });
  }
  const RunResult res = m.run(programs);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(out.value(static_cast<std::size_t>(k) * 32), 100 + k);
  }
  // Cell 2 worked 3x as long as cell 0.
  EXPECT_GT(res.cell_seconds[2], res.cell_seconds[0]);
  EXPECT_DOUBLE_EQ(res.seconds, res.cell_seconds[2]);
}

TEST(MachineRun, WrongProgramCountRejected) {
  KsrMachine m(MachineConfig::ksr1(2));
  std::vector<Machine::Program> programs(3, [](Cpu&) {});
  EXPECT_THROW(m.run(programs), std::invalid_argument);
}

TEST(MachineRun, PmonDeltasArePerRun) {
  KsrMachine m(MachineConfig::ksr1(2));
  auto a = m.alloc<int>("a", 64);
  auto prog = [&](Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 64; ++i) (void)cpu.read(a, i);
    }
  };
  const RunResult r1 = m.run(prog);
  const RunResult r2 = m.run(prog);
  EXPECT_GT(r1.pmon.subcache_misses, 0u);
  // Second run is warm: strictly fewer misses, and the delta is not
  // contaminated by the first run's counters.
  EXPECT_LT(r2.pmon.subcache_misses, r1.pmon.subcache_misses);
  EXPECT_EQ(r2.pmon.subcache_hits + r2.pmon.subcache_misses,
            r1.pmon.subcache_hits + r1.pmon.subcache_misses);
}

TEST(MachineRun, SecondRunStartsAtLaterEpochButReportsRelativeSeconds) {
  KsrMachine m(MachineConfig::ksr1(1));
  auto prog = [](Cpu& cpu) { cpu.work(1000); };
  const RunResult r1 = m.run(prog);
  const RunResult r2 = m.run(prog);
  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
}

TEST(Config, ValidationRejectsBadShapes) {
  MachineConfig c = MachineConfig::ksr1(0);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  // 65 cells is now a legal three-leaf hierarchy; the limits are derived
  // from the topology itself (34 ARD positions on the level-1 ring).
  c = MachineConfig::ksr1(65);
  EXPECT_NO_THROW(c.validate());
  c = MachineConfig::ksr1(MachineConfig::kRing1Positions * 32);  // 1088
  EXPECT_NO_THROW(c.validate());
  c = MachineConfig::ksr1(MachineConfig::kRing1Positions * 32 + 1);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = MachineConfig::ksr1(8);
  c.cells_per_leaf = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  // The bus/butterfly substrates keep the historical 64-cell ceiling.
  c = MachineConfig::symmetry(65);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = MachineConfig::butterfly(65);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_THROW((void)MachineConfig::ksr1(4).scaled_by(0),
               std::invalid_argument);
}

TEST(Config, ScaledByPreservesUnitsAndFloors) {
  const MachineConfig c = MachineConfig::ksr1(4).scaled_by(1u << 20);
  // Floors: associativity * allocation unit.
  EXPECT_EQ(c.subcache.capacity_bytes, 2 * mem::kBlockBytes);
  EXPECT_EQ(c.localcache.capacity_bytes, 16 * mem::kPageBytes);
}

TEST(Config, LeafRingCount) {
  EXPECT_EQ(MachineConfig::ksr1(32).leaf_rings(), 1u);
  EXPECT_EQ(MachineConfig::ksr2(33).leaf_rings(), 2u);
  EXPECT_EQ(MachineConfig::ksr2(64).leaf_rings(), 2u);
}

TEST(Factory, BuildsTheRightMachine) {
  EXPECT_NE(dynamic_cast<KsrMachine*>(
                make_machine(MachineConfig::ksr1(2)).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<KsrMachine*>(
                make_machine(MachineConfig::ksr2(2)).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<BusMachine*>(
                make_machine(MachineConfig::symmetry(2)).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<ButterflyMachine*>(
                make_machine(MachineConfig::butterfly(2)).get()),
            nullptr);
}

TEST(RangeAccess, BulkReadTouchesEverySubBlockOnce) {
  KsrMachine m(MachineConfig::ksr1(1));
  auto a = m.alloc<double>("a", 1024);  // 8 KB = 128 sub-blocks
  m.run([&](Cpu& cpu) {
    const auto misses0 = cpu.pmon().subcache_misses;
    cpu.read_range(a.addr(0), 1024 * sizeof(double));
    EXPECT_EQ(cpu.pmon().subcache_misses - misses0, 128u);
    // Second pass: all hits.
    const auto hits0 = cpu.pmon().subcache_hits;
    cpu.read_range(a.addr(0), 1024 * sizeof(double));
    EXPECT_EQ(cpu.pmon().subcache_hits - hits0, 128u);
  });
}

TEST(Prefetch, QueueDepthBoundsOutstandingFetches) {
  MachineConfig cfg = MachineConfig::ksr1(2);
  cfg.prefetch_depth = 2;
  KsrMachine m(cfg);
  auto a = m.alloc<double>("a", 4096);
  auto flag = m.alloc<int>("f", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 4096; i += 16) cpu.write(a, i, 1.0);
      cpu.write(flag, 0, 1);
    } else {
      sync::spin_until(cpu, [&] { return cpu.read(flag, 0) == 1; });
      // Fire 10 prefetches back-to-back; only `depth` can be in flight, the
      // rest are dropped hints.
      for (std::size_t i = 0; i < 10; ++i) {
        cpu.prefetch(a.addr(i * mem::kSubPageBytes / sizeof(double) * 8));
      }
      EXPECT_LE(cpu.pmon().prefetches_issued, 2u);
    }
  });
}

TEST(Poststore, WithoutOwnershipIsAHintOnly) {
  KsrMachine m(MachineConfig::ksr1(2));
  auto a = m.alloc<int>("a", 16);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 1) {
      cpu.post_store(a.addr(0));  // never wrote it: nothing to broadcast
      EXPECT_EQ(cpu.pmon().poststores_issued, 0u);
    }
  });
}

// ------------------------------------------------------------ Symmetry ----

TEST(BusMachine, CoherentAndAtomicOpsWork) {
  BusMachine m(MachineConfig::symmetry(4));
  auto counter = m.alloc<std::uint32_t>("c", 1);
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 20; ++i) {
      sync::fetch_add(cpu, counter, 0, 1u);
      cpu.work(cpu.rng().below(200));
    }
  });
  EXPECT_EQ(counter.value(0), 80u);
  EXPECT_GT(m.bus().stats().transactions, 0u);
}

TEST(BusMachine, EverythingSerializesOnTheBus) {
  // Four cells streaming distinct remote data: on the ring these pipeline,
  // on the bus they queue. Check queue waits accumulate.
  BusMachine m(MachineConfig::symmetry(4));
  auto a = m.alloc<std::uint32_t>("a", 4 * 4096);
  m.run([&](Cpu& cpu) {
    const std::size_t mine = static_cast<std::size_t>(cpu.id()) * 4096;
    for (std::size_t i = 0; i < 4096; i += 32) {
      cpu.write(a, mine + i, 1u);
    }
  });
  m.run([&](Cpu& cpu) {
    const std::size_t other =
        static_cast<std::size_t>((cpu.id() + 1) % 4) * 4096;
    for (std::size_t i = 0; i < 4096; i += 32) {
      (void)cpu.read(a, other + i);
    }
  });
  EXPECT_GT(m.bus().stats().total_wait_ns, 0u);
}

// ----------------------------------------------------------- Butterfly ----

TEST(ButterflyMachine, HomePlacementHonoursBlockedRegions) {
  ButterflyMachine m(MachineConfig::butterfly(8));
  auto flags = m.alloc<std::uint32_t>(
      "flags", 8 * 32, Placement::blocked(mem::kSubPageBytes));
  for (unsigned c = 0; c < 8; ++c) {
    EXPECT_EQ(m.home_of(flags.addr(static_cast<std::size_t>(c) * 32)), c);
  }
}

TEST(ButterflyMachine, LocalReferencesAreCheap) {
  ButterflyMachine m(MachineConfig::butterfly(4));
  auto flags = m.alloc<std::uint32_t>(
      "flags", 4 * 32, Placement::blocked(mem::kSubPageBytes));
  double local_t = 0, remote_t = 0;
  m.run([&](Cpu& cpu) {
    if (cpu.id() != 0) return;
    double t0 = cpu.seconds();
    for (int i = 0; i < 100; ++i) (void)cpu.read(flags, 0);  // home = 0
    local_t = cpu.seconds() - t0;
    t0 = cpu.seconds();
    for (int i = 0; i < 100; ++i) (void)cpu.read(flags, 3 * 32);  // home = 3
    remote_t = cpu.seconds() - t0;
  });
  EXPECT_LT(local_t * 2, remote_t);
}

TEST(ButterflyMachine, GetSubpageMutualExclusion) {
  ButterflyMachine m(MachineConfig::butterfly(8));
  auto lock = m.alloc<std::uint32_t>("lock", 1);
  auto data = m.alloc<std::uint32_t>("data", 1);
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 15; ++i) {
      cpu.get_subpage(lock.addr(0));
      cpu.write(data, 0, cpu.read(data, 0) + 1);
      cpu.release_subpage(lock.addr(0));
      cpu.work(cpu.rng().below(500));
    }
  });
  EXPECT_EQ(data.value(0), 8u * 15u);
}

TEST(ButterflyMachine, ReleaseWithoutLockThrows) {
  ButterflyMachine m(MachineConfig::butterfly(2));
  auto lock = m.alloc<std::uint32_t>("lock", 1);
  EXPECT_THROW(
      m.run([&](Cpu& cpu) { cpu.release_subpage(lock.addr(0)); }),
      std::logic_error);
}

}  // namespace
}  // namespace ksr::machine
