#pragma once

#include <cstdint>

#include "ksr/sim/time.hpp"

// Per-cell hardware performance monitor.
//
// Each KSR-1 node has a hardware monitor reporting sub-cache and local-cache
// misses and time spent in ring accesses (paper §2); the authors used it
// extensively to attribute effects. This struct is our equivalent: the cache
// and coherence models bump these counters as a side effect of simulation.
namespace ksr::cache {

struct PerfMonitor {
  // Sub-cache (first level).
  std::uint64_t subcache_hits = 0;
  std::uint64_t subcache_misses = 0;
  std::uint64_t subcache_block_allocs = 0;  // 2 KB block allocations

  // Local cache (second level).
  std::uint64_t localcache_hits = 0;
  std::uint64_t localcache_misses = 0;  // went to the interconnect
  std::uint64_t page_allocs = 0;        // 16 KB page allocations
  std::uint64_t pages_evicted = 0;

  // Interconnect.
  std::uint64_t ring_requests = 0;      // transactions issued
  std::uint64_t ring_nacks = 0;         // atomic-state rejections
  std::uint64_t atomic_retries = 0;     // get_subpage retry loops
  ksr::sim::Duration ring_time_ns = 0;  // total stall time in remote accesses
  ksr::sim::Duration inject_wait_ns = 0;  // portion spent waiting for a slot

  // Coherence events observed by this cell.
  std::uint64_t invalidations_received = 0;
  std::uint64_t snarfs = 0;  // invalid placeholders refreshed by passing data

  // Explicit communication primitives.
  std::uint64_t prefetches_issued = 0;
  std::uint64_t poststores_issued = 0;

  /// Subtract a baseline snapshot (for per-run counter deltas).
  void sub(const PerfMonitor& o) noexcept {
    subcache_hits -= o.subcache_hits;
    subcache_misses -= o.subcache_misses;
    subcache_block_allocs -= o.subcache_block_allocs;
    localcache_hits -= o.localcache_hits;
    localcache_misses -= o.localcache_misses;
    page_allocs -= o.page_allocs;
    pages_evicted -= o.pages_evicted;
    ring_requests -= o.ring_requests;
    ring_nacks -= o.ring_nacks;
    atomic_retries -= o.atomic_retries;
    ring_time_ns -= o.ring_time_ns;
    inject_wait_ns -= o.inject_wait_ns;
    invalidations_received -= o.invalidations_received;
    snarfs -= o.snarfs;
    prefetches_issued -= o.prefetches_issued;
    poststores_issued -= o.poststores_issued;
  }

  /// Mean slot wait per ring transaction (ns; 0 with no transactions): the
  /// ring-saturation indicator the paper reads off the hardware monitor.
  [[nodiscard]] double inject_wait_per_request() const noexcept {
    return ring_requests ? static_cast<double>(inject_wait_ns) /
                               static_cast<double>(ring_requests)
                         : 0.0;
  }

  void add(const PerfMonitor& o) noexcept {
    subcache_hits += o.subcache_hits;
    subcache_misses += o.subcache_misses;
    subcache_block_allocs += o.subcache_block_allocs;
    localcache_hits += o.localcache_hits;
    localcache_misses += o.localcache_misses;
    page_allocs += o.page_allocs;
    pages_evicted += o.pages_evicted;
    ring_requests += o.ring_requests;
    ring_nacks += o.ring_nacks;
    atomic_retries += o.atomic_retries;
    ring_time_ns += o.ring_time_ns;
    inject_wait_ns += o.inject_wait_ns;
    invalidations_received += o.invalidations_received;
    snarfs += o.snarfs;
    prefetches_issued += o.prefetches_issued;
    poststores_issued += o.poststores_issued;
  }

  [[nodiscard]] std::uint64_t subcache_accesses() const noexcept {
    return subcache_hits + subcache_misses;
  }
  [[nodiscard]] double subcache_miss_ratio() const noexcept {
    const auto n = subcache_accesses();
    return n ? static_cast<double>(subcache_misses) / static_cast<double>(n) : 0.0;
  }
  [[nodiscard]] double localcache_miss_ratio() const noexcept {
    const auto n = localcache_hits + localcache_misses;
    return n ? static_cast<double>(localcache_misses) / static_cast<double>(n) : 0.0;
  }
};

}  // namespace ksr::cache
