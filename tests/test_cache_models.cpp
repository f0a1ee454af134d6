// Unit and property tests for the two cache models: geometry, allocation
// units, presence tracking, invalidation, eviction bookkeeping, and the
// random-replacement behaviour the SP experiments depend on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ksr/cache/flat_map.hpp"
#include "ksr/cache/local_cache.hpp"
#include "ksr/cache/subcache.hpp"
#include "ksr/sim/rng.hpp"

namespace ksr::cache {
namespace {

// ------------------------------------------------------------ SubCache ----

TEST(SubCache, GeometryMatchesTheRealMachine) {
  SubCache sc;  // 256 KB, 2-way, 2 KB blocks
  EXPECT_EQ(sc.sets(), 64u);
  EXPECT_EQ(sc.ways(), 2u);
}

TEST(SubCache, FirstAccessAllocatesBlockAndFillsSubBlock) {
  SubCache sc;
  sim::Rng rng(1);
  const auto r = sc.access(0x10000, rng);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.block_allocated);
  EXPECT_FALSE(r.block_evicted);
  EXPECT_TRUE(sc.contains(0x10000));
}

TEST(SubCache, SecondAccessSameSubBlockHits) {
  SubCache sc;
  sim::Rng rng(1);
  (void)sc.access(0x10000, rng);
  const auto r = sc.access(0x10000 + 8, rng);  // same 64 B sub-block
  EXPECT_TRUE(r.hit);
  EXPECT_FALSE(r.block_allocated);
}

TEST(SubCache, DifferentSubBlockSameBlockMissesWithoutAllocation) {
  SubCache sc;
  sim::Rng rng(1);
  (void)sc.access(0x10000, rng);
  const auto r = sc.access(0x10000 + mem::kSubBlockBytes, rng);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.block_allocated);  // block frame already allocated
}

TEST(SubCache, ConflictingBlocksEvictWithinTheSet) {
  SubCache sc;  // 64 sets: blocks 2 KB apart by 128 KB conflict
  sim::Rng rng(7);
  const mem::Sva way_span = 64 * mem::kBlockBytes;  // 128 KB
  (void)sc.access(0 * way_span, rng);
  (void)sc.access(1 * way_span, rng);
  const auto r = sc.access(2 * way_span, rng);  // third block, 2 ways
  EXPECT_TRUE(r.block_allocated);
  EXPECT_TRUE(r.block_evicted);
  // Exactly one of the first two is gone (random victim).
  const int present = (sc.contains(0) ? 1 : 0) + (sc.contains(way_span) ? 1 : 0);
  EXPECT_EQ(present, 1);
}

TEST(SubCache, InvalidateSubpageDropsItsTwoSubBlocks) {
  SubCache sc;
  sim::Rng rng(1);
  (void)sc.access(0x2000, rng);
  (void)sc.access(0x2000 + 64, rng);
  (void)sc.access(0x2000 + 128, rng);  // next sub-page, same block
  sc.invalidate_subpage(mem::subpage_of(0x2000));
  EXPECT_FALSE(sc.contains(0x2000));
  EXPECT_FALSE(sc.contains(0x2000 + 64));
  EXPECT_TRUE(sc.contains(0x2000 + 128));  // other sub-page untouched
}

TEST(SubCache, InvalidateBlockDropsWholeBlock) {
  SubCache sc;
  sim::Rng rng(1);
  (void)sc.access(0x4000, rng);
  (void)sc.access(0x4000 + 1024, rng);
  sc.invalidate_block(mem::block_of(0x4000));
  EXPECT_FALSE(sc.contains(0x4000));
  EXPECT_FALSE(sc.contains(0x4000 + 1024));
}

TEST(SubCache, ScaledConfigShrinksSets) {
  SubCache sc(SubCache::Config{16 * 1024, 2});
  EXPECT_EQ(sc.sets(), 4u);
}

// A set count that is not a power of two (a scaled_by(3) geometry) selects
// sets by remainder, exactly as `block % sets` does: every block lands in
// a slot of its own set, and blocks of one residue only evict each other.
TEST(SubCache, NonPowerOfTwoSetsPlaceByRemainder) {
  SubCache sc(SubCache::Config{3 * 2 * mem::kBlockBytes, 2});
  ASSERT_EQ(sc.sets(), 3u);
  sim::Rng rng(5);
  for (mem::BlockId blk = 0; blk < 6; ++blk) {
    EXPECT_TRUE(sc.access(blk * mem::kBlockBytes, rng).block_allocated);
  }
  std::size_t slot = 0;
  sc.for_each_frame([&](mem::BlockId tag, std::uint32_t, bool valid) {
    EXPECT_TRUE(valid);
    EXPECT_EQ(tag % 3, slot / 2) << "slot " << slot;
    ++slot;
  });
  EXPECT_EQ(slot, 6u);
  // Block 7 (residue 1) evicts 1 or 4 and leaves the other residues alone.
  EXPECT_TRUE(sc.access(7 * mem::kBlockBytes, rng).block_evicted);
  for (const mem::BlockId blk : {0u, 3u, 2u, 5u, 7u}) {
    EXPECT_TRUE(sc.contains(blk * mem::kBlockBytes)) << "block " << blk;
  }
  EXPECT_NE(sc.contains(1 * mem::kBlockBytes), sc.contains(4 * mem::kBlockBytes));
}

// Property: presence is always a subset of what was accessed.
TEST(SubCache, NeverContainsWhatWasNeverAccessed) {
  SubCache sc;
  sim::Rng rng(3);
  std::set<mem::SubBlockId> touched;
  sim::Rng addr_rng(99);
  for (int i = 0; i < 5000; ++i) {
    const mem::Sva a = addr_rng.below(1u << 22) & ~7ull;
    (void)sc.access(a, rng);
    touched.insert(mem::subblock_of(a));
  }
  sim::Rng probe_rng(123);
  for (int i = 0; i < 5000; ++i) {
    const mem::Sva a = probe_rng.below(1u << 22) & ~7ull;
    if (sc.contains(a)) {
      EXPECT_TRUE(touched.count(mem::subblock_of(a)) == 1);
    }
  }
}

// --------------------------------------------------------- LocalCache ----

TEST(LocalCache, GeometryMatchesTheRealMachine) {
  LocalCache lc;  // 32 MB, 16-way, 16 KB pages
  EXPECT_EQ(lc.sets(), 128u);
  EXPECT_EQ(lc.ways(), 16u);
}

TEST(LocalCache, TouchAllocatesPageWithInvalidSiblings) {
  LocalCache lc;
  sim::Rng rng(1);
  const mem::SubPageId sp = 1000;
  const auto pa = lc.touch(sp, LineState::kShared, rng);
  EXPECT_TRUE(pa.allocated);
  EXPECT_FALSE(pa.evicted);
  EXPECT_EQ(lc.state(sp), LineState::kShared);
  EXPECT_EQ(lc.atomic_subpages(mem::page_of_subpage(sp)), 0u);
  // Sibling sub-pages of the same page are placeholders (frame present,
  // state Invalid).
  const mem::SubPageId sibling = sp + 1;
  ASSERT_EQ(mem::page_of_subpage(sibling), mem::page_of_subpage(sp));
  const auto lk = lc.lookup(sibling);
  EXPECT_TRUE(lk.page_present);
  EXPECT_EQ(lk.state, LineState::kInvalid);
}

TEST(LocalCache, SecondTouchSamePageDoesNotAllocate) {
  LocalCache lc;
  sim::Rng rng(1);
  (void)lc.touch(1000, LineState::kShared, rng);
  const auto pa = lc.touch(1001, LineState::kExclusive, rng);
  EXPECT_FALSE(pa.allocated);
  EXPECT_EQ(lc.state(1001), LineState::kExclusive);
}

TEST(LocalCache, EvictionReportsAllSubpageStates) {
  LocalCache lc(LocalCache::Config{2 * mem::kPageBytes, 1});  // 2 sets, direct
  sim::Rng rng(1);
  const mem::SubPageId base = 0;  // page 0 -> set 0
  (void)lc.touch(base, LineState::kExclusive, rng);
  (void)lc.touch(base + 1, LineState::kShared, rng);
  // Page 2 maps to set 0 as well (2 sets): evicts page 0.
  const auto pa =
      lc.touch(2 * mem::kSubPagesPerPage, LineState::kShared, rng);
  EXPECT_TRUE(pa.evicted);
  EXPECT_EQ(pa.evicted_page, 0u);
  EXPECT_EQ(lc.state(base), LineState::kInvalid);
  EXPECT_EQ(lc.state(base + 1), LineState::kInvalid);
}

TEST(LocalCache, SetStateOnAbsentPageIsNoOp) {
  LocalCache lc;
  lc.set_state(424242, LineState::kShared);
  EXPECT_EQ(lc.state(424242), LineState::kInvalid);
}

// The frame's Atomic count follows every state write: into and out of
// Atomic through set_state and touch, repeated writes of the same state,
// and writes to other sub-pages of the page.
TEST(LocalCache, StateTransitionsStick) {
  LocalCache lc;
  sim::Rng rng(1);
  (void)lc.touch(5, LineState::kShared, rng);
  lc.set_state(5, LineState::kAtomic);
  EXPECT_EQ(lc.state(5), LineState::kAtomic);
  EXPECT_TRUE(writable(lc.state(5)));
  EXPECT_EQ(lc.atomic_subpages(0), 1u);
  lc.set_state(5, LineState::kAtomic);
  EXPECT_EQ(lc.atomic_subpages(0), 1u);
  (void)lc.touch(6, LineState::kAtomic, rng);
  EXPECT_EQ(lc.atomic_subpages(0), 2u);
  (void)lc.touch(6, LineState::kExclusive, rng);
  EXPECT_EQ(lc.atomic_subpages(0), 1u);
  lc.set_state(7, LineState::kShared);
  EXPECT_EQ(lc.atomic_subpages(0), 1u);
  lc.set_state(5, LineState::kInvalid);
  EXPECT_FALSE(readable(lc.state(5)));
  EXPECT_TRUE(lc.lookup(5).page_present);  // placeholder remains
  EXPECT_EQ(lc.atomic_subpages(0), 0u);
  lc.set_state(424242, LineState::kAtomic);  // absent page: no count
  EXPECT_EQ(lc.atomic_subpages(mem::page_of_subpage(424242)), 0u);
}

// clear() invalidates every frame but keeps its tag: the checkpoint image
// reports each old tag with valid=false and all-Invalid states, and the
// Atomic counts are zero.
TEST(LocalCache, ClearDropsEverything) {
  LocalCache lc(LocalCache::Config{4 * mem::kPageBytes, 2});  // 2 sets
  sim::Rng rng(1);
  (void)lc.touch(5, LineState::kExclusive, rng);  // page 0: set 0, way 0
  (void)lc.touch(3 * mem::kSubPagesPerPage + 1, LineState::kAtomic, rng);
  ASSERT_EQ(lc.atomic_subpages(3), 1u);
  lc.clear();
  EXPECT_FALSE(lc.lookup(5).page_present);
  EXPECT_EQ(lc.atomic_subpages(3), 0u);
  std::vector<std::pair<mem::PageId, bool>> frames;
  lc.for_each_frame([&](mem::PageId tag, bool valid, LocalCache::PageStates st) {
    frames.emplace_back(tag, valid);
    for (const LineState s : st) EXPECT_EQ(s, LineState::kInvalid);
  });
  const std::vector<std::pair<mem::PageId, bool>> want = {
      {0, false}, {0, false}, {3, false}, {0, false}};
  EXPECT_EQ(frames, want);
  // Page 3 (set 1) returns to its first invalid way with a zero count.
  (void)lc.touch(3 * mem::kSubPagesPerPage, LineState::kShared, rng);
  EXPECT_EQ(lc.atomic_subpages(3), 0u);
}

// restore_frame recounts the Atomic sub-pages of the states it is given,
// for a valid and for an invalid slot.
TEST(LocalCache, RestoreFrameRecountsLocks) {
  LocalCache lc(LocalCache::Config{2 * mem::kPageBytes, 2});  // 1 set
  std::array<LineState, mem::kSubPagesPerPage> st{};
  st[0] = LineState::kAtomic;
  st[9] = LineState::kAtomic;
  st[10] = LineState::kExclusive;
  lc.restore_frame(1, 7, true, st);
  EXPECT_EQ(lc.atomic_subpages(7), 2u);
  EXPECT_EQ(lc.state(7 * mem::kSubPagesPerPage + 10), LineState::kExclusive);
  st.fill(LineState::kInvalid);
  lc.restore_frame(1, 7, true, st);
  EXPECT_EQ(lc.atomic_subpages(7), 0u);
  lc.restore_frame(0, 4, false, st);
  EXPECT_FALSE(lc.lookup(4 * mem::kSubPagesPerPage).page_present);
  std::vector<std::pair<mem::PageId, bool>> frames;
  lc.for_each_frame([&](mem::PageId tag, bool valid, LocalCache::PageStates) {
    frames.emplace_back(tag, valid);
  });
  const std::vector<std::pair<mem::PageId, bool>> want = {{4, false},
                                                          {7, true}};
  EXPECT_EQ(frames, want);
}

// Property: a frame holding an Atomic sub-page is never the victim while
// some way of its set is unlocked; with every way locked the fallback draws
// rng.below(ways) over all of them, as the policy always has.
TEST(LocalCache, LockedFramesAreNeverVictimsWhileAWayIsUnlocked) {
  LocalCache lc(LocalCache::Config{2 * 16 * mem::kPageBytes, 16});  // 2 x 16
  sim::Rng rng(21);
  sim::Rng draw(22);
  std::set<mem::PageId> locked;
  for (mem::PageId pg = 0; pg < 4000; ++pg) {
    // Every fifth page gets a locked sub-page; about one in three locked
    // pages is released again after a while.
    const bool lock = pg % 5 == 0;
    const mem::SubPageId sp = pg * mem::kSubPagesPerPage + pg % 128;
    const auto pa =
        lc.touch(sp, lock ? LineState::kAtomic : LineState::kShared, rng);
    ASSERT_TRUE(pa.allocated);
    if (pa.evicted) {
      std::size_t unlocked_in_set = 0;
      lc.for_each_frame([&](mem::PageId tag, bool valid, LocalCache::PageStates) {
        if (valid && tag % 2 == pg % 2 && tag != pg && !locked.contains(tag)) {
          ++unlocked_in_set;
        }
      });
      if (locked.contains(pa.evicted_page)) {
        // Only legal when every other way of the set was locked as well.
        EXPECT_EQ(unlocked_in_set, 0u) << "page " << pg;
        locked.erase(pa.evicted_page);
      }
    }
    if (lock) locked.insert(pg);
    if (lock && draw.below(3) == 0 && !locked.empty()) {
      const mem::PageId rel = *locked.begin();
      lc.set_state(rel * mem::kSubPagesPerPage + rel % 128, LineState::kShared);
      locked.erase(rel);
    }
    for (const mem::PageId l : locked) {
      ASSERT_EQ(lc.atomic_subpages(l), 1u) << "page " << l;
    }
  }
}

TEST(LocalCache, AllLockedFallbackDrawsOverEveryWay) {
  LocalCache lc(LocalCache::Config{4 * mem::kPageBytes, 4});  // 1 set x 4
  sim::Rng rng(7);
  for (mem::PageId pg = 0; pg < 4; ++pg) {
    (void)lc.touch(pg * mem::kSubPagesPerPage + 3, LineState::kAtomic, rng);
  }
  // Filling invalid ways draws nothing, so a copy of the stream predicts
  // the fallback's pick: way k holds page k.
  sim::Rng ref = rng;
  for (mem::PageId pg = 4; pg < 12; ++pg) {
    const std::size_t way = ref.below(4);
    mem::PageId expect = 0;
    std::size_t slot = 0;
    lc.for_each_frame([&](mem::PageId tag, bool, LocalCache::PageStates) {
      if (slot++ == way) expect = tag;
    });
    const auto pa =
        lc.touch(pg * mem::kSubPagesPerPage + 3, LineState::kAtomic, rng);
    ASSERT_TRUE(pa.evicted);
    EXPECT_EQ(pa.evicted_page, expect) << "page " << pg;
    EXPECT_EQ(lc.atomic_subpages(pg), 1u);
  }
}

// Property: with W ways per set, at most W pages of one set are resident.
// A set count that is not a power of two selects sets by remainder, exactly
// as `page % sets` does.
TEST(LocalCache, NonPowerOfTwoSetsPlaceByRemainder) {
  LocalCache lc(LocalCache::Config{3 * 16 * mem::kPageBytes, 16});
  ASSERT_EQ(lc.sets(), 3u);
  sim::Rng rng(3);
  for (mem::PageId pg = 0; pg < 48; ++pg) {
    EXPECT_FALSE(lc.touch(pg * mem::kSubPagesPerPage, LineState::kShared, rng)
                     .evicted);
  }
  std::size_t slot = 0;
  lc.for_each_frame([&](mem::PageId tag, bool valid, LocalCache::PageStates) {
    EXPECT_TRUE(valid);
    EXPECT_EQ(tag % 3, slot / 16) << "slot " << slot;
    ++slot;
  });
  EXPECT_EQ(slot, 48u);
  // Page 50 (residue 2) evicts a page of residue 2 only.
  const auto pa = lc.touch(50 * mem::kSubPagesPerPage, LineState::kShared, rng);
  ASSERT_TRUE(pa.evicted);
  EXPECT_EQ(pa.evicted_page % 3, 2u);
}

TEST(LocalCache, AssociativityBound) {
  LocalCache lc(LocalCache::Config{64 * mem::kPageBytes, 4});  // 16 sets
  sim::Rng rng(11);
  // 40 pages all mapping to set 0 (page ids multiples of 16).
  for (mem::PageId pg = 0; pg < 40; ++pg) {
    (void)lc.touch(pg * 16 * mem::kSubPagesPerPage, LineState::kShared, rng);
  }
  int resident = 0;
  for (mem::PageId pg = 0; pg < 40; ++pg) {
    if (lc.lookup(pg * 16 * mem::kSubPagesPerPage).page_present) ++resident;
  }
  EXPECT_EQ(resident, 4);
}

TEST(LineState, PredicatesAndNames) {
  EXPECT_FALSE(readable(LineState::kInvalid));
  EXPECT_TRUE(readable(LineState::kShared));
  EXPECT_FALSE(writable(LineState::kShared));
  EXPECT_TRUE(writable(LineState::kExclusive));
  EXPECT_TRUE(writable(LineState::kAtomic));
  EXPECT_EQ(to_string(LineState::kAtomic), "Atomic");
}

// ------------------------------------------------------------- FlatMap ----

TEST(FlatMap, InsertFindEraseAgainstStdMap) {
  FlatMap<std::uint64_t, int> m;
  std::map<std::uint64_t, int> ref;
  sim::Rng rng(42);
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng.below(512);
    switch (rng.below(4)) {
      case 0:
      case 1:
        m[key] = static_cast<int>(round);
        ref[key] = static_cast<int>(round);
        break;
      case 2:
        EXPECT_EQ(m.erase(key), ref.erase(key) != 0);
        break;
      default: {
        const int* got = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
}

TEST(FlatMap, BackshiftErasePreservesProbeClusters) {
  // Keys engineered to collide into one probe cluster: erasing from the
  // middle must keep the later keys findable (backward-shift deletion).
  FlatMap<std::uint64_t, int> m;
  std::vector<std::uint64_t> keys;
  // Keys of the form i << 58 all land in bucket 0 at the initial capacity
  // of 64: the product i*phi << 58 keeps only 6 significant bits, which the
  // >> 32 leaves 26 bits above the 6-bit bucket mask.
  for (std::uint64_t i = 1; i <= 24; ++i) {
    const std::uint64_t k = i << 58;
    keys.push_back(k);
    m[k] = static_cast<int>(i);
  }
  for (std::size_t victim = 0; victim < keys.size(); victim += 3) {
    EXPECT_TRUE(m.erase(keys[victim]));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int* got = m.find(keys[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, static_cast<int>(i + 1));
    }
  }
}

TEST(FlatMap, GrowthRehashesEverything) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 5000; ++k) m[k * 977] = k;
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const std::uint64_t* got = m.find(k * 977);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, k);
  }
  EXPECT_EQ(m.find(977 * 5001), nullptr);
}

TEST(FlatMap, ClearKeepsCapacityAndEmpties) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.contains(7));
  m[7] = 2;
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 2);
}

}  // namespace
}  // namespace ksr::cache
