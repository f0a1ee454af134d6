// Coherence-protocol behaviour of the simulated KSR machine: state
// migration, invalidation, snarfing, atomic (get_subpage) semantics,
// poststore, prefetch, and determinism.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ksr/machine/ksr_machine.hpp"

namespace ksr::machine {
namespace {

using mem::SharedArray;

MachineConfig small_ksr(unsigned nproc) {
  return MachineConfig::ksr1(nproc);
}

TEST(Coherence, FirstTouchCreatesExclusiveOwnership) {
  KsrMachine m(small_ksr(2));
  auto arr = m.alloc<double>("a", 16);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) cpu.write(arr, 0, 1.5);
  });
  const auto v = m.dir_view(mem::subpage_of(arr.addr(0)));
  EXPECT_EQ(v.holders, 0b01u);
  EXPECT_EQ(v.owner, 0);
  EXPECT_FALSE(v.atomic);
  EXPECT_DOUBLE_EQ(arr.value(0), 1.5);
}

TEST(Coherence, ReadBySecondCellSharesTheLine) {
  KsrMachine m(small_ksr(2));
  auto arr = m.alloc<double>("a", 16);
  auto flag = m.alloc<int>("flag", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 2.25);
      cpu.write(flag, 0, 1);
    } else {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      EXPECT_DOUBLE_EQ(cpu.read(arr, 0), 2.25);
    }
  });
  const auto v = m.dir_view(mem::subpage_of(arr.addr(0)));
  EXPECT_EQ(v.holders, 0b11u);
  EXPECT_EQ(v.owner, -1);  // no exclusive owner once shared
}

TEST(Coherence, WriteInvalidatesOtherCopies) {
  KsrMachine m(small_ksr(3));
  auto arr = m.alloc<int>("a", 16);
  auto phase = m.alloc<int>("phase", 64);  // one flag per sub-page... index 0 only
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 7);
      cpu.write(phase, 0, 1);
    } else if (cpu.id() == 1) {
      while (cpu.read(phase, 0) < 1) cpu.work(10);
      EXPECT_EQ(cpu.read(arr, 0), 7);  // now shared by 0 and 1
      cpu.write(phase, 0, 2);
    } else {
      while (cpu.read(phase, 0) < 2) cpu.work(10);
      cpu.write(arr, 0, 9);  // invalidates cells 0 and 1
    }
  });
  const auto v = m.dir_view(mem::subpage_of(arr.addr(0)));
  EXPECT_EQ(v.holders, 0b100u);
  EXPECT_EQ(v.owner, 2);
  // The previous holders keep placeholders for the line.
  EXPECT_EQ(v.placeholders & 0b11u, 0b11u);
  EXPECT_EQ(arr.value(0), 9);
  EXPECT_GE(m.cell_pmon(0).invalidations_received, 1u);
  EXPECT_GE(m.cell_pmon(1).invalidations_received, 1u);
}

TEST(Coherence, ReadSnarfingRefreshesAllPlaceholders) {
  KsrMachine m(small_ksr(4));
  auto arr = m.alloc<int>("a", 16);
  auto phase = m.alloc<int>("phase", 1);
  m.run([&](Cpu& cpu) {
    // Everyone reads; then cell 0 writes (invalidating 1..3); then cell 1
    // re-reads — snarfing should refresh 2 and 3 as well.
    if (cpu.id() != 0) {
      (void)cpu.read(arr, 0);
      if (cpu.id() == 1) {
        while (cpu.read(phase, 0) < 1) cpu.work(10);
        EXPECT_EQ(cpu.read(arr, 0), 5);
        cpu.write(phase, 0, 2);
      }
    } else {
      cpu.work(50000);  // let the others cache the line first
      cpu.write(arr, 0, 5);
      cpu.write(phase, 0, 1);
      while (cpu.read(phase, 0) < 2) cpu.work(10);
    }
  });
  const auto v = m.dir_view(mem::subpage_of(arr.addr(0)));
  // After cell 1's re-read, snarfing gave 2 and 3 fresh copies too.
  EXPECT_EQ(v.holders, 0b1111u);
  EXPECT_GE(m.cell_pmon(2).snarfs + m.cell_pmon(3).snarfs, 2u);
}

TEST(Coherence, SnarfingCanBeDisabled) {
  auto cfg = small_ksr(4);
  cfg.read_snarfing = false;
  KsrMachine m(cfg);
  auto arr = m.alloc<int>("a", 16);
  auto phase = m.alloc<int>("phase", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() != 0) {
      (void)cpu.read(arr, 0);
      if (cpu.id() == 1) {
        while (cpu.read(phase, 0) < 1) cpu.work(10);
        (void)cpu.read(arr, 0);
        cpu.write(phase, 0, 2);
      }
    } else {
      cpu.work(50000);
      cpu.write(arr, 0, 5);
      cpu.write(phase, 0, 1);
      while (cpu.read(phase, 0) < 2) cpu.work(10);
    }
  });
  const auto v = m.dir_view(mem::subpage_of(arr.addr(0)));
  EXPECT_EQ(v.holders & 0b1100u, 0u);  // cells 2,3 still invalid
  EXPECT_EQ(m.cell_pmon(2).snarfs + m.cell_pmon(3).snarfs, 0u);
}

TEST(Coherence, GetSubpageSerializesContenders) {
  KsrMachine m(small_ksr(2));
  auto lock = m.alloc<int>("lock", 1);
  auto data = m.alloc<int>("data", 1);
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 50; ++i) {
      cpu.get_subpage(lock.addr(0));
      const int v = cpu.read(data, 0);
      cpu.work(100);
      cpu.write(data, 0, v + 1);
      cpu.release_subpage(lock.addr(0));
      cpu.work(200);
    }
  });
  EXPECT_EQ(data.value(0), 100);  // no lost updates despite contention
  // Contention must have caused NACK retries on at least one cell.
  EXPECT_GT(m.cell_pmon(0).ring_nacks + m.cell_pmon(1).ring_nacks, 0u);
}

TEST(Coherence, ReleaseWithoutHoldThrows) {
  KsrMachine m(small_ksr(1));
  auto lock = m.alloc<int>("lock", 1);
  EXPECT_THROW(m.run([&](Cpu& cpu) { cpu.release_subpage(lock.addr(0)); }),
               std::logic_error);
}

TEST(Coherence, PoststorePushesToPlaceholders) {
  KsrMachine m(small_ksr(3));
  auto arr = m.alloc<int>("a", 16);
  auto phase = m.alloc<int>("phase", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.work(50000);             // others read first
      cpu.poststore(arr, 0, 42);   // write + broadcast
      cpu.work(50000);             // let the packet land
      cpu.write(phase, 0, 1);
    } else {
      (void)cpu.read(arr, 0);  // establish a copy (then invalidated by 0)
      while (cpu.read(phase, 0) < 1) cpu.work(10);
    }
  });
  const auto v = m.dir_view(mem::subpage_of(arr.addr(0)));
  // The poststore refreshed both placeholder cells; writer downgraded.
  EXPECT_EQ(v.holders, 0b111u);
  EXPECT_EQ(v.owner, -1);
  EXPECT_GE(m.cell_pmon(0).poststores_issued, 1u);
}

TEST(Coherence, PrefetchAvoidsDemandStall) {
  KsrMachine m(small_ksr(2));
  auto arr = m.alloc<double>("a", 512);  // several sub-pages
  auto flag = m.alloc<int>("flag", 1);
  double prefetched_cost = 0;
  double cold_cost = 0;
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 512; ++i) cpu.write(arr, i, 1.0);
      cpu.write(flag, 0, 1);
    } else {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      // Cold remote read of sub-page A.
      const double t0 = cpu.seconds();
      (void)cpu.read(arr, 0);
      cold_cost = cpu.seconds() - t0;
      // Prefetch sub-page B, wait ample time, then read it.
      cpu.prefetch(arr.addr(64));  // 64 doubles = 512 B away
      cpu.work(1000);              // 50 us: fetch completes in background
      const double t1 = cpu.seconds();
      (void)cpu.read(arr, 64);
      prefetched_cost = cpu.seconds() - t1;
    }
  });
  EXPECT_GT(cold_cost, 5e-6);         // a ring transaction
  EXPECT_LT(prefetched_cost, 2e-6);   // a local-cache hit
  EXPECT_GE(m.cell_pmon(1).prefetches_issued, 1u);
}

TEST(Coherence, ExclusivePrefetchAvoidsTheWriteUpgrade) {
  KsrMachine m(small_ksr(2));
  auto arr = m.alloc<double>("a", 512);
  auto flag = m.alloc<int>("flag", 1);
  double shared_write_cost = 0;
  double exclusive_write_cost = 0;
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 512; ++i) cpu.write(arr, i, 1.0);
      cpu.write(flag, 0, 1);
    } else {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      // Shared prefetch: the later write still needs an upgrade.
      cpu.prefetch(arr.addr(0));
      cpu.work(1000);
      double t0 = cpu.seconds();
      cpu.write(arr, 0, 2.0);
      shared_write_cost = cpu.seconds() - t0;
      // Exclusive prefetch: the later write hits locally.
      cpu.prefetch(arr.addr(64), /*exclusive=*/true);
      cpu.work(1000);
      t0 = cpu.seconds();
      cpu.write(arr, 64, 2.0);
      exclusive_write_cost = cpu.seconds() - t0;
    }
  });
  EXPECT_GT(shared_write_cost, 5e-6);   // upgrade = ring transaction
  EXPECT_LT(exclusive_write_cost, 2e-6);  // local
}

TEST(Coherence, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    KsrMachine m(MachineConfig::ksr1(8));
    auto arr = m.alloc<int>("a", 4096);
    auto res = m.run([&](Cpu& cpu) {
      for (int rep = 0; rep < 20; ++rep) {
        for (unsigned i = cpu.id(); i < 4096; i += cpu.nproc()) {
          cpu.write(arr, i, static_cast<int>(i));
        }
        cpu.work(cpu.rng().below(100));
      }
    });
    return res.seconds;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Coherence, TwoLeafRingsCommunicateThroughArds) {
  KsrMachine m(MachineConfig::ksr1(64));
  ASSERT_EQ(m.leaf_count(), 2u);
  ASSERT_NE(m.level1_ring(), nullptr);
  auto arr = m.alloc<int>("a", 16);
  auto flag = m.alloc<int>("flag", 1);
  double cross_cost = 0;
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 11);
      cpu.write(flag, 0, 1);
    } else if (cpu.id() == 63) {  // other leaf ring
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      const double t0 = cpu.seconds();
      EXPECT_EQ(cpu.read(arr, 0), 11);
      cross_cost = cpu.seconds() - t0;
    }
  });
  // Crossing the ARDs must cost clearly more than a same-ring access.
  EXPECT_GT(cross_cost, 12e-6);
}

TEST(Coherence, AtomicLineSurvivesEvictionPressure) {
  // Regression: while a cell holds a sub-page Atomic, streaming enough data
  // to churn its whole (minimally sized) local cache must not evict the
  // locked line — the release would otherwise fault.
  KsrMachine m(MachineConfig::ksr1(2).scaled_by(1u << 20));  // floor-size caches
  auto lock = m.alloc<int>("lock", 1);
  auto big = m.alloc<double>("big", 256 * 1024 / 8 * 4);  // >> local cache
  m.run([&](Cpu& cpu) {
    if (cpu.id() != 0) return;
    cpu.get_subpage(lock.addr(0));
    cpu.read_range(big.addr(0), big.size() * sizeof(double));
    cpu.release_subpage(lock.addr(0));  // must not throw
  });
  EXPECT_FALSE(m.dir_view(mem::subpage_of(lock.addr(0))).atomic);
}

// Eviction fix-up on a sparsely populated page: 16 of its 128 sub-pages
// have directory entries, four of them held by nobody (their holder on the
// other leaf evicted them). When cell 0 evicts the page, every entry must
// end as a brute-force sweep over all 128 sub-pages predicts — including
// the resident_leaf rewrite of the four entries cell 0 never held. A
// machine restored from a checkpoint taken before the eviction must end
// with the same directory, so the page index is rebuilt from the image.
TEST(Coherence, EvictionFixupOfASparsePageMatchesAFullSweep) {
  const MachineConfig cfg = MachineConfig::ksr1(64).scaled_by(1u << 20);
  struct Arrays {
    SharedArray<std::uint8_t> page;
    SharedArray<double> stream;
  };
  const auto alloc = [](KsrMachine& m) {
    return Arrays{m.alloc<std::uint8_t>("page", mem::kPageBytes),
                  m.alloc<double>("stream", 128 * mem::kPageBytes / 8)};
  };
  const auto on = [](KsrMachine& m, unsigned cell, auto&& body) {
    m.run([&](Cpu& cpu) {
      if (cpu.id() == cell) body(cpu);
    });
  };
  const auto stream = [](Cpu& cpu, const Arrays& a, std::size_t half) {
    const std::size_t n = a.stream.size() / 2;
    cpu.read_range(a.stream.addr(half * n), n * sizeof(double));
  };
  const auto sp_of = [](const Arrays& a, unsigned i) {
    return mem::subpage_of(a.page.addr(i * mem::kSubPageBytes));
  };

  KsrMachine m(cfg);
  Arrays a = alloc(m);
  const std::vector<unsigned> orphaned = {3, 50, 90, 127};
  const std::vector<unsigned> owned = {0,  7,  8,  20,  33,  64,
                                       65, 77, 100, 101, 110, 126};
  on(m, 32, [&](Cpu& cpu) {  // leaf 1: touch four sub-pages, then evict
    for (const unsigned i : orphaned) {
      cpu.write(a.page, i * mem::kSubPageBytes, 1);
    }
    stream(cpu, a, 0);
  });
  for (const unsigned i : orphaned) {
    const auto v = m.dir_view(sp_of(a, i));
    ASSERT_TRUE(v.exists);
    ASSERT_EQ(v.holders, 0u) << "sub-page " << i;
    ASSERT_EQ(v.resident_leaf, 1u);
  }
  on(m, 0, [&](Cpu& cpu) {
    for (const unsigned i : owned) {
      cpu.write(a.page, i * mem::kSubPageBytes, 2);
    }
  });
  on(m, 1, [&](Cpu& cpu) {
    for (const unsigned i : {7u, 64u, 100u}) {
      (void)cpu.read(a.page, i * mem::kSubPageBytes);
    }
  });
  on(m, 33, [&](Cpu& cpu) {
    for (const unsigned i : {8u, 110u}) {
      (void)cpu.read(a.page, i * mem::kSubPageBytes);
    }
  });
  const std::vector<std::byte> image = m.checkpoint();

  // The reference: today's entries with cell 0's eviction applied by a
  // lookup of each of the 128 sub-pages.
  struct Entry {
    bool exists;
    cache::CellMask holders, placeholders;
    int owner;
    bool atomic;
    unsigned resident_leaf;
    bool operator==(const Entry&) const = default;
  };
  const auto entries = [&](const KsrMachine& mm) {
    std::vector<Entry> out;
    for (unsigned i = 0; i < mem::kSubPagesPerPage; ++i) {
      const mem::SubPageId sp = sp_of(a, i);
      const auto v = mm.dir_view(sp);
      out.push_back({v.exists, mm.dir_holders(sp), mm.dir_placeholders(sp),
                     v.owner, v.atomic, v.resident_leaf});
    }
    return out;
  };
  std::vector<Entry> want = entries(m);
  unsigned present = 0;
  for (Entry& e : want) {
    if (!e.exists) continue;
    ++present;
    e.holders.clear(0);
    e.placeholders.clear(0);
    if (e.owner == 0) {
      e.owner = -1;
      e.atomic = false;
    }
    if (e.holders.none()) e.resident_leaf = 0;
  }
  ASSERT_EQ(present, orphaned.size() + owned.size());

  on(m, 0, [&](Cpu& cpu) { stream(cpu, a, 1); });
  for (const unsigned i : owned) {  // cell 0 no longer holds the page
    EXPECT_EQ(m.cell_line_state(0, sp_of(a, i)), cache::LineState::kInvalid);
  }
  EXPECT_TRUE(entries(m) == want);
  for (const unsigned i : orphaned) {
    EXPECT_EQ(m.dir_view(sp_of(a, i)).resident_leaf, 0u) << "sub-page " << i;
  }

  KsrMachine r(cfg);
  Arrays ra = alloc(r);
  r.restore(image);
  on(r, 0, [&](Cpu& cpu) { stream(cpu, ra, 1); });
  EXPECT_TRUE(entries(r) == want);
  EXPECT_EQ(r.parallel_engine().events_dispatched(),
            m.parallel_engine().events_dispatched());
}

TEST(Coherence, ResetMemorySystemForgetsEverything) {
  KsrMachine m(small_ksr(2));
  auto arr = m.alloc<int>("a", 16);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) cpu.write(arr, 0, 3);
  });
  EXPECT_NE(m.dir_view(mem::subpage_of(arr.addr(0))).holders, 0u);
  m.reset_memory_system();
  EXPECT_EQ(m.dir_view(mem::subpage_of(arr.addr(0))).holders, 0u);
  EXPECT_EQ(arr.value(0), 3);  // data survives; only cache state is dropped
}

}  // namespace
}  // namespace ksr::machine
