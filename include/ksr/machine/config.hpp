#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "ksr/cache/local_cache.hpp"
#include "ksr/cache/subcache.hpp"
#include "ksr/sim/time.hpp"

// Machine configuration and presets.
//
// Latency philosophy (paper §2 and §3.2.4): the KSR-2 differs from the KSR-1
// only in CPU clock (40 vs 20 MHz); ring and memory are identical. We
// therefore express *processor-coupled* costs in CPU cycles (instruction
// work, sub-cache hits) and *memory-system* costs in absolute nanoseconds
// (local-cache access, ring hops, protocol overheads), so a KSR-2 preset is
// literally "halve the cycle time".
namespace ksr::machine {

enum class MachineKind : std::uint8_t {
  kKsr1,       // COMA + slotted ring hierarchy
  kKsr2,       // same, 2x CPU clock
  kSymmetry,   // snooping caches on a serializing bus
  kButterfly,  // multistage network, no coherent caches
};

[[nodiscard]] constexpr const char* to_string(MachineKind k) noexcept {
  switch (k) {
    case MachineKind::kKsr1: return "KSR-1";
    case MachineKind::kKsr2: return "KSR-2";
    case MachineKind::kSymmetry: return "Symmetry";
    case MachineKind::kButterfly: return "Butterfly";
  }
  return "?";
}

struct MachineConfig {
  MachineKind kind = MachineKind::kKsr1;
  unsigned nproc = 32;

  // --- Processor ---
  sim::Duration cycle_ns = 50;        // 20 MHz KSR-1; 25 ns on KSR-2
  unsigned subcache_hit_cycles = 2;   // published first-level latency

  // --- Local cache (absolute time; published 18 cycles @ 50 ns) ---
  sim::Duration localcache_read_ns = 900;
  sim::Duration localcache_write_ns = 1000;  // writes slightly dearer (Fig. 2)
  sim::Duration block_alloc_ns = 450;   // 2 KB sub-cache block allocation (+~50%)
  sim::Duration page_alloc_ns = 5200;   // 16 KB local-cache page allocation (+~60%)

  // --- Leaf ring (published remote access ≈ 175 cycles = 8.75 us) ---
  unsigned cells_per_leaf = 32;
  unsigned ring_slots_per_subring = 12;
  sim::Duration ring_hop_ns = 100;       // 32 positions -> 3.2 us circulation
  sim::Duration ring_fixed_ns = 5400;    // protocol/lookup overhead per transaction

  // --- Level-1 ring (the "sudden jump" beyond one leaf, §3.2.4) ---
  unsigned ring1_slots_per_subring = 48;  // "rings of higher bandwidth"
  sim::Duration ring1_hop_ns = 50;
  sim::Duration ard_crossing_ns = 2500;   // per direction through the ARD pair

  // --- Caches ---
  cache::SubCache::Config subcache{};
  cache::LocalCache::Config localcache{};

  // --- Protocol features ---
  bool read_snarfing = true;
  bool has_prefetch = true;   // KSR prefetch instruction available
  bool has_poststore = true;  // KSR poststore instruction available
  unsigned prefetch_depth = 4;              // outstanding prefetches per cell
  sim::Duration atomic_backoff_ns = 2000;   // base retry delay after a NACK
  sim::Duration local_atomic_ns = 300;      // get/release on an Exclusive-held line

  // --- Single-simulation host parallelism (docs/PARALLEL.md) ---
  // sim_threads: host threads advancing this one simulation through the
  // conservative-quantum ParallelEngine (0 = one per hardware core).
  // Results are bit-identical at any value — the same determinism contract
  // --jobs carries for independent simulations, now inside one machine.
  // The build can move the default off the serial inline path
  // (-DKSR_SIM_THREADS_DEFAULT=N); CI's build-parallel job soaks the whole
  // tier-1 suite that way.
#ifndef KSR_SIM_THREADS_DEFAULT
#define KSR_SIM_THREADS_DEFAULT 1
#endif
  unsigned sim_threads = KSR_SIM_THREADS_DEFAULT;
  // cells_per_domain: requested partition width, 0 = all cells in one
  // domain. On ring machines (KSR-1/KSR-2) the partition is rounded to
  // whole leaf rings — the coherence directory is sharded by home leaf
  // ring, so a domain owns its leaves' shards outright and cross-domain
  // requests travel as explicit level-1-ring transactions through the
  // ParallelEngine's boundary channels (docs/PARALLEL.md). Single-domain
  // runs (the default) keep the seed's synchronous directory commit path
  // and its pinned fingerprints bit-identical; multi-domain runs trade
  // that compatibility for real wall-clock parallelism and home-routed
  // protocol latency. Bus/butterfly machines still run single-domain.
  unsigned cells_per_domain = 0;

  /// Domains the requested partition would produce for this machine size.
  [[nodiscard]] unsigned requested_domains() const noexcept {
    if (cells_per_domain == 0 || cells_per_domain >= nproc) return 1;
    return (nproc + cells_per_domain - 1) / cells_per_domain;
  }

  /// Ring machines can shard the directory by leaf ring and therefore run
  /// multi-domain; the bus and butterfly substrates serialize on a single
  /// shared medium and stay single-domain.
  [[nodiscard]] bool supports_partition() const noexcept {
    return kind == MachineKind::kKsr1 || kind == MachineKind::kKsr2;
  }

  /// Whole leaf rings per domain for a partitioned ring-machine run:
  /// cells_per_domain rounded *up* to the leaf size (a shard is owned by
  /// exactly one domain, so a domain boundary can never split a leaf).
  [[nodiscard]] unsigned planned_leaves_per_domain() const noexcept {
    if (cells_per_leaf == 0) return 1;  // validate() rejects; avoid /0 here
    const unsigned want = cells_per_domain == 0 ? nproc : cells_per_domain;
    return std::max(1u, (want + cells_per_leaf - 1) / cells_per_leaf);
  }

  /// Domains a Machine built from this config actually runs: the leaf-
  /// aligned partition for ring machines, 1 for everything else.
  [[nodiscard]] unsigned planned_domains() const noexcept {
    if (!supports_partition() || requested_domains() <= 1) return 1;
    const unsigned lpd = planned_leaves_per_domain();
    return std::max(1u, (leaf_rings() + lpd - 1) / lpd);
  }

  [[nodiscard]] unsigned domain_of_leaf(unsigned leaf) const noexcept {
    const unsigned d = leaf / planned_leaves_per_domain();
    const unsigned n = planned_domains();
    return d < n ? d : n - 1;
  }

  [[nodiscard]] unsigned domain_of_cell(unsigned cell) const noexcept {
    if (cells_per_leaf == 0) return 0;
    return domain_of_leaf(cell / cells_per_leaf);
  }

  /// Conservative quantum Δ for a partitioned run: the minimum cross-domain
  /// latency of the transport model. On the slotted ring any cross-cell
  /// interaction costs at least one full leaf circulation — a packet
  /// injected in quantum k cannot be delivered before quantum k+1 — so
  /// Δ = positions × hop_ns (the paper layout: 32 × 100 ns = 3.2 us).
  [[nodiscard]] sim::Duration sim_quantum_ns() const noexcept {
    return static_cast<sim::Duration>(cells_per_leaf) * ring_hop_ns;
  }

  /// Fluent copy for sweep call sites: cfg.with_sim_threads(o.sim_threads).
  [[nodiscard]] MachineConfig with_sim_threads(unsigned n) const {
    MachineConfig c = *this;
    c.sim_threads = n;
    return c;
  }

  /// Fluent copy for partitioned-run call sites.
  [[nodiscard]] MachineConfig with_cells_per_domain(unsigned n) const {
    MachineConfig c = *this;
    c.cells_per_domain = n;
    return c;
  }

  // --- Schedule fuzzing (ksrfuzz, docs/CHECKING.md) ---
  // Nonzero: perturb event tie-breaking order (Engine::set_tie_break_seed)
  // and, on ring machines, the slot phase of every ring, all derived
  // deterministically from this seed. 0 (the default) is the reference
  // schedule every fingerprint is pinned against.
  std::uint64_t sched_fuzz_seed = 0;

  // --- Symmetry / Butterfly substrate parameters (§3.2.3) ---
  sim::Duration bus_transaction_ns = 1000;
  sim::Duration bus_overhead_ns = 200;  // requester-side protocol overhead
  sim::Duration butterfly_link_ns = 300;
  sim::Duration butterfly_memory_ns = 600;
  sim::Duration butterfly_local_ns = 600;  // reference into the local module

  // -------- Presets --------

  static MachineConfig ksr1(unsigned nproc = 32) {
    MachineConfig c;
    c.kind = MachineKind::kKsr1;
    c.nproc = nproc;
    return c;
  }

  static MachineConfig ksr2(unsigned nproc = 64) {
    MachineConfig c = ksr1(nproc);
    c.kind = MachineKind::kKsr2;
    c.cycle_ns = 25;  // 40 MHz cells; memory system unchanged
    return c;
  }

  static MachineConfig symmetry(unsigned nproc = 16) {
    MachineConfig c;
    c.kind = MachineKind::kSymmetry;
    c.nproc = nproc;
    // The bus is a broadcast medium: a response passing on the bus can be
    // snooped by every cache holding an invalid copy. This "free broadcast"
    // is why the naive counter barrier is competitive on the Symmetry.
    c.read_snarfing = true;
    c.has_prefetch = false;
    c.has_poststore = false;
    c.bus_transaction_ns = 600;   // snoopy cache-to-cache line transfer
    c.atomic_backoff_ns = 500;    // bus retries are cheap
    return c;
  }

  static MachineConfig butterfly(unsigned nproc = 32) {
    MachineConfig c;
    c.kind = MachineKind::kButterfly;
    c.nproc = nproc;
    c.read_snarfing = false;
    c.has_prefetch = false;
    c.has_poststore = false;
    return c;
  }

  /// The preset `name` names (ksr1|ksr2|symmetry|butterfly) at `nproc`
  /// cells. Throws std::invalid_argument listing the valid names.
  static MachineConfig named(std::string_view name, unsigned nproc) {
    constexpr std::pair<std::string_view, MachineConfig (*)(unsigned)>
        kPresets[] = {{"ksr1", &ksr1},
                      {"ksr2", &ksr2},
                      {"symmetry", &symmetry},
                      {"butterfly", &butterfly}};
    std::string names;
    for (const auto& [preset, make] : kPresets) {
      if (preset == name) return make(nproc);
      if (!names.empty()) names += '|';
      names += preset;
    }
    throw std::invalid_argument("unknown machine '" + std::string(name) +
                                "' (expected " + names + ")");
  }

  /// Shrink both cache capacities by `k` (problem sizes are scaled by the
  /// same factor in the NAS harnesses, preserving working-set/cache ratios —
  /// the quantity the paper's capacity effects depend on).
  [[nodiscard]] MachineConfig scaled_by(unsigned k) const {
    if (k == 0) throw std::invalid_argument("scaled_by(0)");
    MachineConfig c = *this;
    c.subcache.capacity_bytes = std::max<std::size_t>(
        c.subcache.capacity_bytes / k, c.subcache.ways * mem::kBlockBytes);
    c.localcache.capacity_bytes = std::max<std::size_t>(
        c.localcache.capacity_bytes / k, c.localcache.ways * mem::kPageBytes);
    return c;
  }

  /// The level-1 ring carries one ARD attachment point per leaf ring; the
  /// production KSR-1 ring had 34 of them (34 x 32 = 1088 cells, the
  /// machine's published maximum). Kept fixed so the level-1 circulation
  /// time is a property of the machine, not of how full it is.
  static constexpr unsigned kRing1Positions = 34;

  /// Number of leaf rings needed for nproc cells.
  [[nodiscard]] unsigned leaf_rings() const noexcept {
    if (cells_per_leaf == 0) return 1;  // validate() rejects; avoid /0 here
    return (nproc + cells_per_leaf - 1) / cells_per_leaf;
  }

  /// Slotted-ring positions on one leaf ring: its cells plus, when the
  /// machine has more than one leaf, the ARD that couples it to the
  /// level-1 ring. Shared by KsrMachine and study::RingModel so the
  /// analytic model can never drift from the simulated topology.
  [[nodiscard]] unsigned leaf_ring_positions() const noexcept {
    return cells_per_leaf + (leaf_rings() > 1 ? 1u : 0u);
  }

  /// Hop distance (in level-1 positions) from leaf `from`'s ARD to leaf
  /// `to`'s ARD — the ring is unidirectional, so distance is modular.
  [[nodiscard]] unsigned ring1_hops(unsigned from, unsigned to) const noexcept {
    return (to + kRing1Positions - from) % kRing1Positions;
  }

  void validate() const {
    if (nproc == 0) throw std::invalid_argument("MachineConfig: nproc == 0");
    if (cycle_ns == 0 || ring_hop_ns == 0) {
      throw std::invalid_argument("MachineConfig: zero clock period");
    }
    if (supports_partition()) {
      if (cells_per_leaf == 0) {
        throw std::invalid_argument(
            "MachineConfig: cells_per_leaf == 0 (a leaf ring needs at least "
            "one cell position)");
      }
      if (leaf_rings() > kRing1Positions) {
        throw std::invalid_argument(
            "MachineConfig: nproc " + std::to_string(nproc) + " needs " +
            std::to_string(leaf_rings()) + " leaf rings of " +
            std::to_string(cells_per_leaf) +
            " cells, but the level-1 ring has only " +
            std::to_string(kRing1Positions) +
            " ARD positions (max nproc for this shape is " +
            std::to_string(kRing1Positions * cells_per_leaf) + ")");
      }
    } else if (nproc > 64) {
      // The bus and butterfly substrates model machines that never shipped
      // past this size; their directory/queue state also still uses
      // single-word cell masks.
      throw std::invalid_argument(
          "MachineConfig: at most 64 cells supported on " +
          std::string(to_string(kind)));
    }
  }
};

}  // namespace ksr::machine
