// Property-based testing of the coherence protocol: random multiprocessor
// op streams (reads, writes, lock/unlock, prefetch, poststore) followed by
// whole-machine invariant checks over every touched sub-page — including
// under heavy eviction pressure from minimally sized caches.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/sync/atomic.hpp"

namespace ksr::machine {
namespace {

struct Param {
  unsigned nproc;
  unsigned scale;  // cache shrink factor (1 = full size)
  int ops;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string name = "p";
  name += std::to_string(info.param.nproc) + "_scale" +
          std::to_string(info.param.scale) + "_ops" +
          std::to_string(info.param.ops) + "_seed" +
          std::to_string(info.param.seed);
  return name;
}

class CoherenceInvariants : public testing::TestWithParam<Param> {};

TEST_P(CoherenceInvariants, HoldAfterRandomOpStream) {
  const Param prm = GetParam();
  MachineConfig cfg = MachineConfig::ksr1(prm.nproc);
  if (prm.scale > 1) cfg = cfg.scaled_by(prm.scale);
  KsrMachine m(cfg);

  constexpr std::size_t kInts = 64 * 1024;  // 256 KB spread over many pages
  auto data = m.alloc<std::uint32_t>("prop.data", kInts);
  auto locks = m.alloc<std::uint32_t>("prop.locks",
                                      8 * mem::kSubPageBytes / 4);
  auto counters = m.alloc<std::uint32_t>("prop.counters", 8);

  m.run([&](Cpu& cpu) {
    sim::Rng rng(prm.seed ^ (cpu.id() * 0x9E3779B9ull));
    for (int i = 0; i < prm.ops; ++i) {
      const std::size_t idx = rng.below(kInts);
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          (void)cpu.read(data, idx);
          break;
        case 4:
        case 5:
        case 6:
          cpu.write(data, idx, static_cast<std::uint32_t>(i));
          break;
        case 7:
          cpu.prefetch(data.addr(idx));
          break;
        case 8: {
          cpu.write(data, idx, static_cast<std::uint32_t>(i));
          cpu.post_store(data.addr(idx));
          break;
        }
        case 9: {
          // Locked counter increment: the only cross-cell data race, made
          // safe by get_subpage.
          const std::size_t slot = rng.below(8);
          cpu.get_subpage(locks.addr(slot * mem::kSubPageBytes / 4));
          cpu.write(counters, slot, cpu.read(counters, slot) + 1);
          cpu.release_subpage(locks.addr(slot * mem::kSubPageBytes / 4));
          break;
        }
      }
      cpu.work(rng.below(50));
    }
  });

  // ---- Machine-wide invariants over every sub-page of the data region.
  const mem::SubPageId first = mem::subpage_of(data.addr(0));
  const mem::SubPageId last = mem::subpage_of(data.addr(kInts - 1));
  for (mem::SubPageId sp = first; sp <= last; ++sp) {
    const auto v = m.dir_view(sp);
    // 1. No cell is both holder and placeholder.
    EXPECT_EQ(v.holders & v.placeholders, 0u) << "sp=" << sp;
    // 2. An owner is a holder and is the only holder.
    if (v.owner >= 0) {
      EXPECT_EQ(v.holders, 1ull << v.owner) << "sp=" << sp;
    }
    // 3. Atomic implies a live owner.
    if (v.atomic) {
      EXPECT_GE(v.owner, 0) << "sp=" << sp;
    }
    for (unsigned c = 0; c < prm.nproc; ++c) {
      const cache::LineState st = m.cell_line_state(c, sp);
      const bool holder = (v.holders >> c) & 1;
      // 4. Directory holders and cache states agree exactly.
      EXPECT_EQ(cache::readable(st), holder)
          << "sp=" << sp << " cell=" << c << " state=" << to_string(st);
      // 5. Writable copies are unique and owned.
      if (cache::writable(st)) {
        EXPECT_EQ(v.owner, static_cast<int>(c)) << "sp=" << sp;
      }
    }
  }

  // 6. No lock left locked; counters saw every locked increment.
  for (std::size_t slot = 0; slot < 8; ++slot) {
    const auto lv = m.dir_view(mem::subpage_of(
        locks.addr(slot * mem::kSubPageBytes / 4)));
    EXPECT_FALSE(lv.atomic) << "slot=" << slot;
  }
  std::uint64_t total = 0;
  for (std::size_t slot = 0; slot < 8; ++slot) total += counters.value(slot);
  // Each op had 1/10 probability of a locked increment; we only require that
  // none were lost relative to the per-run tally, which the simulation
  // guarantees if get_subpage truly serialized: recompute from a replay.
  // (Exact expected count comes from the same deterministic RNG sequence.)
  std::uint64_t expected = 0;
  for (unsigned c = 0; c < prm.nproc; ++c) {
    sim::Rng rng(prm.seed ^ (c * 0x9E3779B9ull));
    for (int i = 0; i < prm.ops; ++i) {
      (void)rng.below(kInts);
      if (rng.below(10) == 9) {
        (void)rng.below(8);
        ++expected;
      }
      (void)rng.below(50);
    }
  }
  EXPECT_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceInvariants,
    testing::Values(Param{2, 1, 400, 1}, Param{4, 1, 400, 2},
                    Param{8, 1, 300, 3}, Param{16, 1, 200, 4},
                    Param{4, 4096, 400, 5},   // heavy eviction pressure
                    Param{8, 4096, 300, 6},   // heavy eviction pressure
                    Param{32, 64, 150, 7}, Param{64, 64, 80, 8}),
    param_name);

// Determinism property: identical seeds => bit-identical timing, across all
// the op kinds at once.
TEST(CoherenceInvariants, FullMachineDeterminism) {
  auto once = [] {
    KsrMachine m(MachineConfig::ksr1(8).scaled_by(64));
    auto data = m.alloc<std::uint32_t>("d", 4096);
    auto res = m.run([&](Cpu& cpu) {
      sim::Rng rng(99 + cpu.id());
      for (int i = 0; i < 300; ++i) {
        const std::size_t idx = rng.below(4096u);
        if (rng.chance(0.5)) {
          (void)cpu.read(data, idx);
        } else {
          cpu.write(data, idx, 1u);
        }
      }
    });
    return res.seconds;
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

}  // namespace
}  // namespace ksr::machine
