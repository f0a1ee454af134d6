#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ksr/cache/cell_mask.hpp"
#include "ksr/cache/flat_map.hpp"
#include "ksr/cache/local_cache.hpp"
#include "ksr/cache/perf_monitor.hpp"
#include "ksr/cache/state.hpp"
#include "ksr/cache/subcache.hpp"
#include "ksr/machine/machine.hpp"

// Shared core of the cache-coherent machines (KSR ring hierarchy, Symmetry
// bus): per-cell two-level caches, a *sharded* coherence directory, and the
// protocol commit logic. What differs between machines — how a transaction
// physically travels and what it costs — is expressed through virtual hooks
// (transport / home_transport / transaction_overhead_ns).
//
// The directory is *functional* bookkeeping (who holds what, in which
// state); all *timing* flows from the transport model plus the fixed
// latencies in MachineConfig.
//
// Directory sharding (docs/PARALLEL.md): every sub-page has a *home leaf
// ring* — pages interleave across leaves — and its directory entry lives in
// that leaf's shard. One decision path, decide(), serves both execution
// modes; they differ only in where its effects go:
//
//  * Single-domain (the default, and the only mode for <=64-cell seed
//    configs): every cell is in the home domain, so every effect applies in
//    place, synchronously, exactly like the seed's machine-global map.
//    Behaviour and all pinned fingerprints are bit-identical — sharding is
//    purely structural.
//
//  * Multi-domain (ring machines with cells_per_domain set): each domain
//    owns the shards of its leaf rings outright. A requester whose home is
//    in another domain sends an explicit request over the ParallelEngine's
//    boundary channels; the home decides (serializing all transactions on
//    that sub-page) and replies with the grant. Effects on home-domain cells
//    apply in place; effects on other domains' cells ride the boundary
//    channels. Revocations ride one quantum earlier than grants whenever
//    both cross domains (the "two-wave" rule), so a stale reader's last
//    host-level access is barrier-separated from the new owner's first
//    write, and a directory entry stays `busy` until its in-flight effects
//    land, NACKing conflicting requests meanwhile — that keeps per-sub-page
//    effects applied in home decision order.
namespace ksr::check {
class InvariantChecker;
}

namespace ksr::machine {

class CoherentMachine : public Machine {
 public:
  explicit CoherentMachine(const MachineConfig& cfg);
  ~CoherentMachine() override;

  [[nodiscard]] cache::PerfMonitor& cell_pmon(unsigned cell) override {
    return cells_[cell].pmon;
  }

  /// Drop all cached state (cold start between experiments).
  virtual void reset_memory_system();

  /// Directory introspection for tests. The masks are word 0 of the cell
  /// set (cells 0..63) — every <=64-cell expectation reads unchanged; use
  /// dir_holders()/dir_placeholders() for the full masks at scale.
  struct DirView {
    std::uint64_t holders = 0;
    std::uint64_t placeholders = 0;
    int owner = -1;
    bool atomic = false;
  };
  [[nodiscard]] DirView dir_view(mem::SubPageId sp) const;
  [[nodiscard]] cache::CellMask dir_holders(mem::SubPageId sp) const;
  [[nodiscard]] cache::CellMask dir_placeholders(mem::SubPageId sp) const;

  /// Coherence state of `sp` in one cell's local cache (test introspection).
  [[nodiscard]] cache::LineState cell_line_state(unsigned cell,
                                                 mem::SubPageId sp) const {
    return cells_[cell].local.state(sp);
  }

  /// Leaf-ring index of a cell (always 0 on single-network machines).
  [[nodiscard]] virtual unsigned leaf_of(unsigned cell) const noexcept {
    (void)cell;
    return 0;
  }
  [[nodiscard]] virtual unsigned leaf_count() const noexcept { return 1; }

  /// Home leaf ring of a sub-page: its directory shard's owner. Pages
  /// interleave across leaves so shard load balances with footprint.
  [[nodiscard]] unsigned home_leaf(mem::SubPageId sp) const noexcept {
    const unsigned n = static_cast<unsigned>(dir_shards_.size());
    return n <= 1 ? 0
                  : static_cast<unsigned>(mem::page_of_subpage(sp) % n);
  }

  /// Per-home-leaf directory-shard pressure + per-domain ring counters
  /// (base Machine fills the domain plan; see docs/OBSERVABILITY.md).
  void topo_snapshot(obs::topo::Snapshot& s) const override;

  /// Attach an invariant checker (docs/CHECKING.md). In a -DKSR_CHECK=ON
  /// build the machine reports every committed coherence transition to it;
  /// in a default build the hooks compile to nothing and the checker is
  /// only driven explicitly (audit_all). Derived machines override to also
  /// register their interconnects for the I6 liveness audit. Pass nullptr
  /// to detach. The checker must outlive the machine (or be detached
  /// first). Multi-domain runs report no per-transition events (several
  /// threads commit concurrently); audit_all() at quiescent points — after
  /// run() returns — still checks I1–I6 in full.
  virtual void attach_checker(check::InvariantChecker* checker) {
    checker_ = checker;
  }
  [[nodiscard]] check::InvariantChecker* checker() const noexcept {
    return checker_;
  }

 protected:
  friend class CoherentCpu;
  friend class ::ksr::check::InvariantChecker;

  /// Checkpoint hooks (docs/CHECKPOINT.md): per-cell caches, perf counters
  /// and RNG streams, plus the sharded directory (entries serialized in
  /// ascending SubPageId order — FlatMap iteration is hash order, which
  /// must never leak into an image). Capture refuses while any directory
  /// entry is inside a busy window or any cell has an in-flight prefetch.
  void ckpt_assert_quiescent() const override;
  void ckpt_save(ckpt::Writer& w) const override;
  void ckpt_load(ckpt::Reader& r) override;

  struct Cell {
    cache::SubCache sub;
    cache::LocalCache local;
    cache::PerfMonitor pmon;
    sim::Rng rng;       // replacement decisions
    sim::Rng prog_rng;  // program-visible randomness (kept separate so that
                        // workload draws do not perturb replacement)
    // Sub-pages with an in-flight asynchronous fetch (prefetch), mapping to
    // fibers blocked waiting for that fetch.
    cache::FlatMap<mem::SubPageId, std::vector<sim::FiberId>> inflight;
    unsigned inflight_count = 0;
    Cell(const cache::SubCache::Config& sc, const cache::LocalCache::Config& lc,
         std::uint64_t seed)
        : sub(sc), local(lc), rng(seed), prog_rng(~seed) {}
  };

  struct DirEntry {
    cache::CellMask holders;       // cells with a readable copy
    cache::CellMask placeholders;  // cells with an Invalid placeholder
    std::int16_t owner = -1;       // holder when Exclusive/Atomic
    bool atomic = false;
    bool busy = false;  // multi-domain: effects of a prior decision are
                        // still in flight; conflicting requests NACK
    std::uint8_t resident_leaf = 0;  // last leaf the data lived on (used
                                     // when every copy has been evicted)
  };

  enum class Acquire : std::uint8_t { kShared, kExclusive, kAtomic };

  /// Outcome of one directory decision, completed by the requester-side
  /// grant. A remote-home requester receives it in a slot on its fiber's
  /// stack, written only by events running in the requester's domain.
  struct Decision {
    bool ok = false;          // false: NACK (Atomic elsewhere, or busy)
    bool deferred = false;    // a revocation crossed domains: the grant
                              // waits for the grant wave at grant_time
    bool page_alloc = false;  // requester had to allocate a page frame
    sim::Time grant_time = 0;  // earliest time the grant may apply
    cache::LineState state = cache::LineState::kInvalid;
  };

  std::unique_ptr<Cpu> make_cpu(unsigned cell) override;

  // ---- Machine-specific hooks ----

  /// Carry one coherence transaction from `cell` toward `target_leaf`;
  /// `done(total_queue_or_slot_wait)` fires at completion time. In a
  /// multi-domain run this is only ever called for targets inside `cell`'s
  /// own domain (cross-domain travel goes through home_transport and the
  /// boundary channels).
  virtual void transport(unsigned cell, mem::SubPageId sp, unsigned target_leaf,
                         std::function<void(sim::Duration)> done) = 0;

  /// Multi-domain home-side arrival: model the level-1 transit from
  /// `from_leaf`'s ARD and the home ring transaction for a request that
  /// just crossed a boundary channel; `done` fires (on the home domain's
  /// engine) when the directory lookup may commit. Default: immediate.
  virtual void home_transport(unsigned from_leaf, unsigned home,
                              mem::SubPageId sp,
                              std::function<void(sim::Duration)> done) {
    (void)from_leaf;
    (void)home;
    (void)sp;
    done(0);
  }

  /// Fixed per-transaction protocol overhead charged to the requester on a
  /// successful commit (beyond the transport time itself).
  [[nodiscard]] virtual sim::Duration transaction_overhead_ns(
      Acquire kind, bool crossed_leaf) const = 0;

  // ---- Sharded directory access ----

  /// Size the shards and leaf masks from the (virtual) topology. Called
  /// from make_cpu — serially, before any fiber runs — because leaf_of /
  /// leaf_count are not available in the base constructor.
  void ensure_topology();

  [[nodiscard]] DirEntry* dir_find(mem::SubPageId sp) noexcept {
    if (dir_shards_.empty()) return nullptr;
    return dir_shards_[home_leaf(sp)].find(sp);
  }
  [[nodiscard]] const DirEntry* dir_find(mem::SubPageId sp) const noexcept {
    if (dir_shards_.empty()) return nullptr;
    return dir_shards_[home_leaf(sp)].find(sp);
  }
  [[nodiscard]] bool dir_contains(mem::SubPageId sp) const noexcept {
    return dir_find(sp) != nullptr;
  }
  /// Insert-or-find in the home shard (topology must be initialized).
  [[nodiscard]] DirEntry& dir_entry(mem::SubPageId sp) {
    return dir_shards_[home_leaf(sp)][sp];
  }
  /// Host-side sweep over every entry in every shard (audits only; shard
  /// then hash order, so simulated behaviour must never depend on it).
  template <typename F>
  void dir_for_each(F&& f) const {
    for (const auto& shard : dir_shards_) shard.for_each(f);
  }

  /// Mask of cell ids attached to `leaf` (precomputed by ensure_topology).
  [[nodiscard]] const cache::CellMask& leaf_mask(unsigned leaf) const noexcept {
    return leaf_masks_[leaf];
  }

  /// Domain owning `sp`'s home shard (0 on a single-domain machine).
  [[nodiscard]] unsigned home_domain(mem::SubPageId sp) const noexcept {
    return multi_domain_ ? cfg_.domain_of_leaf(home_leaf(sp)) : 0;
  }

  /// Leaf a request from `cell` for `sp` rides to. Transport timing only:
  /// a single-domain acquire targets the leaf of a responding copy and a
  /// poststore the first other leaf with a listening placeholder; a
  /// multi-domain request targets the home leaf.
  [[nodiscard]] unsigned target_leaf(unsigned cell, mem::SubPageId sp,
                                     bool poststore) const;

  /// Per-transition checker hooks fire only single-domain (multi-domain
  /// commits happen on several threads; audits run at quiescence instead).
  [[nodiscard]] bool hooks_on() const noexcept {
    return checker_ != nullptr && !multi_domain_;
  }

  // ---- The directory protocol (both modes; docs/PARALLEL.md) ----

  /// Where one decision's cache-state effects go (coherent_machine.cpp).
  struct Router;

  /// Decide one acquire at `sp`'s home shard, on the home domain's thread:
  /// NACK or grant bookkeeping, then revocations (invalidate/downgrade) and
  /// snarf refreshes routed by Router — applied in place on home-domain
  /// cells, sent on the boundary channels otherwise. The caller applies the
  /// requester-side grant() no earlier than grant_time. `witness` is 1 +
  /// the byte offset (within the sub-page) of the demand access behind the
  /// request, or 0 when there is none (prefetch): pure trace metadata,
  /// logged as the grant record's aux word for the sharing-pattern
  /// classifier and never read by the protocol.
  Decision decide(unsigned cell, mem::SubPageId sp, Acquire kind,
                  std::uint32_t witness);

  /// Poststore at the home shard: the owner loses exclusivity and every
  /// listening placeholder is refreshed, through the same router. Dropped
  /// (after its trace record) while the line is Atomic or busy.
  void poststore(unsigned cell, mem::SubPageId sp);

  /// Requester-side grant: insert the line in `cell`'s local cache and
  /// report the transition to the checker. Returns true if a page frame
  /// was allocated.
  bool grant(unsigned cell, mem::SubPageId sp, Acquire kind,
             cache::LineState st);

  /// Home-side entry for a cross-domain acquire: home_transport, then
  /// decide(), then the grant/NACK reply back over the boundary channel
  /// (grant() runs requester-side inside the reply event, preserving
  /// per-sub-page effect order against later revocations).
  void mb_home_request(unsigned cell, unsigned req_dom, mem::SubPageId sp,
                       Acquire kind, std::uint32_t witness, Decision* rep,
                       sim::FiberId fid);

  /// Home-side release_subpage fix-up (fire and forget from the releaser).
  void mb_release_home(unsigned cell, mem::SubPageId sp);

  /// Home-side eviction fix-up: clear `cell`'s directory bits for `sp`.
  /// Idempotent; ordered before any later request from the same domain by
  /// the boundary channels' FIFO discipline.
  void mb_evict_fixup(unsigned cell, mem::SubPageId sp);

  // ---- Shared cache plumbing ----

  /// Insert/refresh the line in `cell`'s local cache; handles page
  /// allocation and eviction fix-ups. Returns true if a page was allocated.
  bool insert_line(unsigned cell, mem::SubPageId sp, cache::LineState st);

  void on_page_evicted(unsigned cell, mem::PageId page);
  void invalidate_at(unsigned cell, mem::SubPageId sp);
  /// Snarf refresh: `cell`'s placeholder becomes a Shared copy.
  void snarf_at(unsigned cell, mem::SubPageId sp);

  /// Lifetime request counters for one directory shard (observability only:
  /// never checkpointed, never read by the protocol). Mutated exclusively on
  /// the home domain's thread — every decide() runs there — so the counts
  /// are pure simulated data, identical at any --sim-threads. `hot` counts
  /// requests per sub-page (hash order; topo_snapshot sorts before
  /// reporting).
  struct ShardStats {
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t nacks = 0;
    std::uint64_t busy_ns = 0;  // Σ busy-window length (mode B only)
    cache::FlatMap<mem::SubPageId, std::uint64_t> hot;
  };

  /// Count one acquire arriving at `sp`'s home shard.
  void shard_note(mem::SubPageId sp, bool granted) {
    ShardStats& st = shard_stats_[home_leaf(sp)];
    ++st.requests;
    ++(granted ? st.grants : st.nacks);
    ++st.hot[sp];
  }

  std::vector<Cell> cells_;
  std::vector<cache::FlatMap<mem::SubPageId, DirEntry>> dir_shards_;
  std::vector<ShardStats> shard_stats_;  // [leaf_count()], by home leaf
  std::vector<cache::CellMask> leaf_masks_;
  bool multi_domain_ = false;
  check::InvariantChecker* checker_ = nullptr;
};

}  // namespace ksr::machine
