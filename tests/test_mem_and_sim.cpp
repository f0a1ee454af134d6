// Unit tests for the memory substrate (geometry, heap, shared arrays) and
// the small sim utilities (rng determinism, stats accumulators).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ksr/mem/geometry.hpp"
#include "ksr/mem/heap.hpp"
#include "ksr/sim/rng.hpp"
#include "ksr/sim/stats.hpp"
#include "ksr/sim/time.hpp"

namespace ksr {
namespace {

// ------------------------------------------------------------ geometry ----

TEST(Geometry, UnitSizesMatchTheRealMachine) {
  EXPECT_EQ(mem::kSubPageBytes, 128u);
  EXPECT_EQ(mem::kPageBytes, 16384u);
  EXPECT_EQ(mem::kSubBlockBytes, 64u);
  EXPECT_EQ(mem::kBlockBytes, 2048u);
  EXPECT_EQ(mem::kSubPagesPerPage, 128u);
  EXPECT_EQ(mem::kSubBlocksPerBlock, 32u);
}

TEST(Geometry, IdMappingsAreConsistent) {
  const mem::Sva a = 3 * mem::kPageBytes + 5 * mem::kSubPageBytes + 17;
  EXPECT_EQ(mem::page_of(a), 3u);
  EXPECT_EQ(mem::subpage_of(a), 3u * 128 + 5);
  EXPECT_EQ(mem::page_of_subpage(mem::subpage_of(a)), mem::page_of(a));
  EXPECT_EQ(mem::subpage_base(mem::subpage_of(a)) + 17 % 128,
            a - (17 - 17 % 128));
}

TEST(Geometry, SubringInterleavesAlternateSubpages) {
  EXPECT_NE(mem::subring_of(0), mem::subring_of(1));
  EXPECT_EQ(mem::subring_of(0), mem::subring_of(2));
}

// ---------------------------------------------------------------- heap ----

TEST(Heap, AllocationsArePageAlignedAndDisjoint) {
  mem::Heap heap;
  const auto& r1 = heap.alloc(100, "a");
  const auto& r2 = heap.alloc(20000, "b");
  EXPECT_EQ(r1.base % mem::kPageBytes, 0u);
  EXPECT_EQ(r2.base % mem::kPageBytes, 0u);
  EXPECT_GE(r2.base, r1.base + r1.bytes);
  EXPECT_EQ(r1.bytes, mem::kPageBytes);      // rounded up
  EXPECT_EQ(r2.bytes, 2 * mem::kPageBytes);  // 20000 -> 32768
}

TEST(Heap, AddressZeroStaysUnmapped) {
  mem::Heap heap;
  const auto& r = heap.alloc(8, "a");
  EXPECT_GE(r.base, mem::kPageBytes);
  EXPECT_THROW((void)heap.region_of(0), std::out_of_range);
}

TEST(Heap, RegionLookupFindsOwner) {
  mem::Heap heap;
  const auto& r1 = heap.alloc(100, "alpha");
  (void)heap.alloc(100, "beta");
  EXPECT_EQ(heap.region_of(r1.base + 50).name, "alpha");
}

TEST(Heap, RegionLookupBoundaryAddresses) {
  mem::Heap heap;
  const auto& a = heap.alloc(1, "a");
  const auto& b = heap.alloc(3 * mem::kPageBytes, "b");
  const auto& c = heap.alloc(10, "c");
  // First and last byte of every region resolve to that region.
  EXPECT_EQ(&heap.region_of(a.base), &a);
  EXPECT_EQ(&heap.region_of(a.base + a.bytes - 1), &a);
  EXPECT_EQ(&heap.region_of(b.base), &b);
  EXPECT_EQ(&heap.region_of(b.base + b.bytes - 1), &b);
  EXPECT_EQ(&heap.region_of(c.base), &c);
  EXPECT_EQ(&heap.region_of(c.base + c.bytes - 1), &c);
  // Bump allocation: one past a region's end is the next region's base;
  // past the high-water mark is unmapped.
  EXPECT_EQ(&heap.region_of(a.base + a.bytes), &b);
  EXPECT_THROW((void)heap.region_of(c.base + c.bytes), std::out_of_range);
  // The guard page below the first region stays unmapped.
  EXPECT_THROW((void)heap.region_of(a.base - 1), std::out_of_range);
}

TEST(Heap, RegionLookupBinarySearchOverManyRegions) {
  mem::Heap heap;
  std::vector<const mem::Region*> regions;
  for (int i = 0; i < 100; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    regions.push_back(&heap.alloc(1 + static_cast<std::size_t>(i) * 57, name));
  }
  for (const mem::Region* r : regions) {
    EXPECT_EQ(&heap.region_of(r->base), r);
    EXPECT_EQ(&heap.region_of(r->base + r->bytes / 2), r);
    EXPECT_EQ(&heap.region_of(r->base + r->bytes - 1), r);
  }
}

TEST(SharedArray, ValueRoundTrip) {
  mem::Heap heap;
  const auto& r = heap.alloc(64 * sizeof(double), "v");
  mem::SharedArray<double> arr(r, 64);
  arr.set_value(7, 2.5);
  EXPECT_DOUBLE_EQ(arr.value(7), 2.5);
  EXPECT_EQ(arr.addr(7), r.base + 7 * sizeof(double));
  EXPECT_EQ(arr.size(), 64u);
  EXPECT_TRUE(arr.valid());
  EXPECT_FALSE(mem::SharedArray<double>{}.valid());
}

TEST(SharedArray, OversizedViewRejected) {
  mem::Heap heap;
  const auto& r = heap.alloc(16, "v");  // rounds to one page
  EXPECT_THROW((mem::SharedArray<double>(r, 3000)), std::length_error);
}

TEST(SharedArray, ZeroInitialized) {
  mem::Heap heap;
  const auto& r = heap.alloc(8 * sizeof(std::uint64_t), "z");
  mem::SharedArray<std::uint64_t> arr(r, 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(arr.value(i), 0u);
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  sim::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(13), 13u);
  }
}

TEST(Rng, UniformCoversUnitIntervalRoughly) {
  sim::Rng r(9);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = r.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

// --------------------------------------------------------------- stats ----

TEST(RunningStat, MeanVarianceMinMax) {
  sim::RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Samples, QuantilesOnSortedCopy) {
  sim::Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);  // interpolated between 50 and 51
  EXPECT_GE(s.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Time, ConversionsExact) {
  EXPECT_DOUBLE_EQ(sim::to_seconds(1'000'000'000ull), 1.0);
  EXPECT_EQ(sim::usec(3), 3000u);
  EXPECT_EQ(sim::msec(2), 2'000'000u);
}

}  // namespace
}  // namespace ksr
