#include "ksr/machine/coherent_machine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"

namespace ksr::machine {

// ---------------------------------------------------------------------------
// CoherentCpu: the per-cell timing front end shared by KSR and Symmetry.
// ---------------------------------------------------------------------------

class CoherentCpu final : public Cpu {
 public:
  CoherentCpu(CoherentMachine& m, unsigned cell)
      : Cpu(m, cell, m.cells_[cell].pmon, m.cells_[cell].prog_rng), cm_(m) {}

 protected:
  void access(mem::Sva a, std::size_t bytes, Op op) override {
    const mem::Sva end = a + (bytes == 0 ? 1 : bytes);
    mem::Sva p = a;
    while (p < end) {
      access_one(p, op);
      p = (p / mem::kSubBlockBytes + 1) * mem::kSubBlockBytes;
    }
  }

  void do_get_subpage(mem::Sva a) override;
  void do_release_subpage(mem::Sva a) override;
  void do_prefetch(mem::Sva a, bool exclusive) override;
  void do_post_store(mem::Sva a) override;

 private:
  using Acquire = CoherentMachine::Acquire;

  [[nodiscard]] CoherentMachine::Cell& cell() noexcept {
    return cm_.cells_[id_];
  }
  [[nodiscard]] const MachineConfig& cfg() const noexcept {
    return machine_.config();
  }

  /// True when this cell's domain owns the home shard of `sp` (always true
  /// single-domain) — the gate between the synchronous protocol path and
  /// the boundary-channel message path.
  [[nodiscard]] bool home_is_local(mem::SubPageId sp) const {
    return cm_.home_domain(sp) == machine_.domain_of_cell(id_);
  }

  void access_one(mem::Sva a, Op op);
  void load_line(mem::SubPageId sp, bool need_write, std::uint32_t witness);
  /// First touch machine-wide with a local home: the sub-page materialises
  /// in this cell's cache with no network traffic (COMA first-touch
  /// ownership). Returns true if a page frame was allocated.
  bool first_touch(mem::SubPageId sp, bool atomic);
  void remote_acquire(mem::SubPageId sp, Acquire kind, std::uint32_t witness);

  /// Erase `sp`'s in-flight prefetch record on `me` and wake every fiber
  /// parked on it (runs on `me`'s domain engine).
  static void finish_prefetch(CoherentMachine* cm, unsigned me,
                              mem::SubPageId sp);

  /// Trace witness for a demand access: 1 + byte offset within the sub-page
  /// (0 is reserved for "no witness", e.g. prefetch).
  [[nodiscard]] static constexpr std::uint32_t witness_of(mem::Sva a) noexcept {
    return 1u + static_cast<std::uint32_t>(a % mem::kSubPageBytes);
  }
  /// One request leg on the ring to `target_leaf`: block for the round
  /// trip, count it, and attribute its slot-contention wait (kEvInjectWait)
  /// — the same accounting in mode A and on both mode-B paths.
  void ring_leg(mem::SubPageId sp, unsigned target_leaf);
  void fill_subcache(mem::Sva a);

  CoherentMachine& cm_;

  // One-entry MRU in front of the sub-cache hit check: remembers the last
  // sub-block that hit, revalidated in O(1) against the cache generation
  // counters (every mutation that could remove presence or downgrade write
  // rights bumps them). A valid MRU hit takes the exact same counter/timing
  // path as the full lookup, so simulated behaviour is unchanged.
  std::uint64_t mru_subblock_ = ~0ull;
  bool mru_writable_ = false;
  std::uint64_t mru_sub_gen_ = 0;
  std::uint64_t mru_local_gen_ = 0;
};

void CoherentCpu::fill_subcache(mem::Sva a) {
  auto& c = cell();
  const auto acc = c.sub.access(a, c.rng);
  if (acc.block_allocated) {
    ++c.pmon.subcache_block_allocs;
    tick_ns(cfg().block_alloc_ns);
  }
}

void CoherentCpu::access_one(mem::Sva a, Op op) {
  lazy_sync();
  auto& c = cell();
  const std::uint64_t blk = a / mem::kSubBlockBytes;

  if (blk == mru_subblock_ && mru_sub_gen_ == c.sub.generation() &&
      (op == Op::kRead ||
       (mru_writable_ && mru_local_gen_ == c.local.generation()))) {
    ++c.pmon.subcache_hits;
    tick_cycles(cfg().subcache_hit_cycles);
    return;
  }

  const mem::SubPageId sp = mem::subpage_of(a);

  if (op == Op::kRead) {
    if (c.sub.contains(a)) {
      ++c.pmon.subcache_hits;
      tick_cycles(cfg().subcache_hit_cycles);
      mru_subblock_ = blk;
      mru_sub_gen_ = c.sub.generation();
      mru_writable_ = false;  // write rights are established on first write
      return;
    }
    ++c.pmon.subcache_misses;
    load_line(sp, /*need_write=*/false, witness_of(a));
    fill_subcache(a);
    return;
  }

  // Write: exclusivity is required at the local-cache level even when the
  // data bytes sit in the sub-cache.
  const bool writable_here = cache::writable(c.local.state(sp));
  if (writable_here && c.sub.contains(a)) {
    ++c.pmon.subcache_hits;
    tick_cycles(cfg().subcache_hit_cycles);
    mru_subblock_ = blk;
    mru_sub_gen_ = c.sub.generation();
    mru_writable_ = true;
    mru_local_gen_ = c.local.generation();
    return;
  }
  ++c.pmon.subcache_misses;
  load_line(sp, /*need_write=*/true, witness_of(a));
  fill_subcache(a);
}

bool CoherentCpu::first_touch(mem::SubPageId sp, bool atomic) {
  auto& e = cm_.dir_entry(sp);
  e.holders.assign_single(id_);
  e.owner = static_cast<std::int16_t>(id_);
  e.atomic = atomic;
  e.resident_leaf = static_cast<std::uint8_t>(cm_.leaf_of(id_));
  const bool page_alloc = cm_.insert_line(
      id_, sp,
      atomic ? cache::LineState::kAtomic : cache::LineState::kExclusive);
  KSR_CHECK_HOOK(if (cm_.hooks_on()) cm_.checker_->on_transition(
      check::Ev::kFirstTouch, id_, sp));
  return page_alloc;
}

void CoherentCpu::load_line(mem::SubPageId sp, bool need_write,
                            std::uint32_t witness) {
  auto& c = cell();
  for (;;) {
    const cache::LineState st = c.local.state(sp);
    const bool sufficient =
        need_write ? cache::writable(st) : cache::readable(st);
    if (sufficient) {
      ++c.pmon.localcache_hits;
      tick_ns(need_write ? cfg().localcache_write_ns
                         : cfg().localcache_read_ns);
      return;
    }

    // An asynchronous fetch for this sub-page may already be in flight
    // (prefetch): wait for it and re-check. hard_sync() can yield — the
    // fetch may complete (erasing its entry) during the wait, so the map
    // entry must be re-resolved afterwards.
    if (c.inflight.contains(sp)) {
      hard_sync();
      auto* waiters = c.inflight.find(sp);
      if (waiters == nullptr) continue;  // landed while we synced
      waiters->push_back(fiber_);
      block_until_woken();
      continue;
    }

    ++c.pmon.localcache_misses;
    if (home_is_local(sp) && !cm_.dir_contains(sp)) {
      // When the home shard lives in another domain only the home may
      // decide creation (two domains could first-touch concurrently), so
      // that case falls through to the acquire path below.
      if (first_touch(sp, /*atomic=*/false)) tick_ns(cfg().page_alloc_ns);
      tick_ns(need_write ? cfg().localcache_write_ns
                         : cfg().localcache_read_ns);
      return;
    }
    remote_acquire(sp, need_write ? Acquire::kExclusive : Acquire::kShared,
                   witness);
    return;
  }
}

void CoherentCpu::ring_leg(mem::SubPageId sp, unsigned target_leaf) {
  sim::Duration wait = 0;
  cm_.transport(id_, sp, target_leaf, [this, &wait](sim::Duration w) {
    wait = w;
    wake_at(eng().now());
  });
  block_until_woken();
  auto& c = cell();
  ++c.pmon.ring_requests;
  c.pmon.inject_wait_ns += wait;
  if (obs::Tracer* tr = cm_.tracer_for_cell(id_); tr != nullptr && wait != 0) {
    // Stall attribution: this cpu lost `wait` ns to slot contention.
    tr->log(eng().now(), obs::kCatStall, obs::kEvInjectWait, sp, id_,
            static_cast<std::int64_t>(wait));
  }
}

void CoherentCpu::remote_acquire(mem::SubPageId sp, Acquire kind,
                                 std::uint32_t witness) {
  auto& c = cell();
  constexpr unsigned kMaxRetries = 1'000'000;
  unsigned consecutive_nacks = 0;
  for (unsigned attempt = 0;; ++attempt) {
    if (attempt > kMaxRetries) {
      throw std::runtime_error(
          "remote_acquire: 1e6 NACK retries on sub-page " + std::to_string(sp) +
          " — atomic line never released (simulated livelock)");
    }
    hard_sync();
    const sim::Time t0 = local_now_;

    CoherentMachine::Decision d;
    bool crossed = true;
    if (home_is_local(sp)) {
      // The home shard is in our own domain (always, single-domain): ride
      // the (domain-local) ring to the target leaf and decide
      // synchronously. Effects on other domains ride the boundary channels;
      // if any revocation crossed, our own grant waits for the grant wave.
      const unsigned target = cm_.target_leaf(id_, sp, /*poststore=*/false);
      crossed = target != cm_.leaf_of(id_);
      ring_leg(sp, target);
      d = cm_.decide(id_, sp, kind, witness);
      if (d.ok) {
        // Cache state commits at decision time (deferring it to grant_time
        // could tie with a later decision's synchronous revoke at the same
        // instant). Only the *timing* of a deferred grant waits.
        d.page_alloc = cm_.grant(id_, sp, kind, d.state);
        if (d.deferred) {
          eng().wait_until(d.grant_time);
          local_now_ = std::max(local_now_, eng().now());
          // The entry's busy window ends exactly at grant_time, so the
          // next decision's synchronous revocation can land at the very
          // instant this wait ends — and same-time order carries no
          // meaning. If the grant did not survive the wait, treat it as
          // a NACK and retry.
          const cache::LineState st = c.local.state(sp);
          d.ok = kind == Acquire::kShared ? cache::readable(st)
                                          : cache::writable(st);
        }
      }
    } else {
      // Remote home: leg 1 rides our own leaf ring to the ARD, the request
      // crosses on a boundary channel, the home decides and replies. The
      // reply event itself applies the grant before waking us, so
      // per-channel FIFO order protects the grant against any later
      // revocation the home emits for us.
      ring_leg(sp, cm_.leaf_of(id_));

      CoherentMachine* cm = &cm_;
      CoherentMachine::Decision* rp = &d;
      const unsigned me = id_;
      const unsigned dr = machine_.domain_of_cell(id_);
      const sim::FiberId fid = fiber_;
      machine_.parallel_engine().send(
          dr, cm_.home_domain(sp), machine_.parallel_engine().horizon(),
          [cm, me, dr, sp, kind, witness, rp, fid] {
            cm->mb_home_request(me, dr, sp, kind, witness, rp, fid);
          });
      block_until_woken();
    }

    if (d.ok) {
      tick_ns(cm_.transaction_overhead_ns(kind, crossed));
      if (d.page_alloc) tick_ns(cfg().page_alloc_ns);
      c.pmon.ring_time_ns += local_now_ - t0;
      if (obs::Tracer* tr = cm_.tracer_for_cell(id_)) {
        // Stall attribution: total time this cpu spent in the transaction.
        tr->log(eng().now(), obs::kCatStall, obs::kEvRemoteAcquire,
                sp, id_, static_cast<std::int64_t>(local_now_ - t0));
      }
      return;
    }

    // NACK: the sub-page is held Atomic somewhere (or its home entry is
    // busy applying a previous decision). Back off (bounded exponential,
    // randomized) and retry.
    ++c.pmon.ring_nacks;
    ++c.pmon.atomic_retries;
    c.pmon.ring_time_ns += local_now_ - t0;
    consecutive_nacks = std::min(consecutive_nacks + 1, 6u);
    const sim::Duration base = cfg().atomic_backoff_ns
                               << (consecutive_nacks - 1);
    const sim::Duration nap = base + cell().rng.below(base);
    if (obs::Tracer* tr = cm_.tracer_for_cell(id_)) {
      tr->log(eng().now(), obs::kCatStall, obs::kEvNackBackoff, sp,
              id_, static_cast<std::int64_t>(nap));
    }
    tick_ns(nap);
  }
}

void CoherentCpu::do_get_subpage(mem::Sva a) {
  lazy_sync();
  auto& c = cell();
  const mem::SubPageId sp = mem::subpage_of(a);

  if (!home_is_local(sp)) {
    // The home shard decides everything (including first touch); no local
    // shortcut is sound while revocations may be in flight toward us.
    remote_acquire(sp, Acquire::kAtomic, witness_of(a));
    return;
  }

  if (auto* pe = cm_.dir_find(sp)) {
    auto& e = *pe;
    if (!e.busy && e.owner == static_cast<std::int16_t>(id_) &&
        cache::writable(c.local.state(sp))) {
      // We already hold the only copy: lock it locally.
      e.atomic = true;
      c.local.set_state(sp, cache::LineState::kAtomic);
      KSR_CHECK_HOOK(if (cm_.hooks_on()) cm_.checker_->on_transition(
          check::Ev::kLocalAtomic, id_, sp));
      tick_ns(cfg().local_atomic_ns);
      return;
    }
    remote_acquire(sp, Acquire::kAtomic, witness_of(a));
    return;
  }

  // First touch machine-wide, directly into Atomic state.
  if (first_touch(sp, /*atomic=*/true)) tick_ns(cfg().page_alloc_ns);
  tick_ns(cfg().local_atomic_ns);
}

void CoherentCpu::do_release_subpage(mem::Sva a) {
  lazy_sync();
  const mem::SubPageId sp = mem::subpage_of(a);

  if (home_is_local(sp)) {
    auto* e = cm_.dir_find(sp);
    if (e == nullptr || !e->atomic ||
        e->owner != static_cast<std::int16_t>(id_)) {
      throw std::logic_error(
          "release_subpage: cell " + std::to_string(id_) +
          " does not hold sub-page " + std::to_string(sp) + " atomically");
    }
    e->atomic = false;
    cell().local.set_state(sp, cache::LineState::kExclusive);
    KSR_CHECK_HOOK(if (cm_.hooks_on()) cm_.checker_->on_transition(
        check::Ev::kReleaseAtomic, id_, sp));
    tick_ns(cfg().local_atomic_ns);
    return;
  }

  // Remote home: our local Atomic state is the proof of ownership (only
  // the home ever grants it). Unlock locally, then send the fix-up; the
  // home keeps NACKing acquires until it lands, which is exactly the
  // window a real unlock packet would leave.
  if (cell().local.state(sp) != cache::LineState::kAtomic) {
    throw std::logic_error(
        "release_subpage: cell " + std::to_string(id_) +
        " does not hold sub-page " + std::to_string(sp) + " atomically");
  }
  cell().local.set_state(sp, cache::LineState::kExclusive);
  hard_sync();
  CoherentMachine* cm = &cm_;
  const unsigned me = id_;
  const unsigned dr = machine_.domain_of_cell(id_);
  const unsigned dh = cm_.home_domain(sp);
  cm_.transport(me, sp, cm_.leaf_of(me), [cm, me, dr, dh, sp](sim::Duration) {
    cm->parallel_engine().send(dr, dh, cm->parallel_engine().horizon(),
                               [cm, me, sp] { cm->mb_release_home(me, sp); });
  });
  tick_ns(cfg().local_atomic_ns);
}

void CoherentCpu::finish_prefetch(CoherentMachine* cm, unsigned me,
                                  mem::SubPageId sp) {
  auto& c2 = cm->cells_[me];
  auto* entry = c2.inflight.find(sp);
  if (entry == nullptr) return;
  auto waiters = std::move(*entry);
  c2.inflight.erase(sp);
  --c2.inflight_count;
  sim::Engine& eng = cm->engine_of(cm->domain_of_cell(me));
  for (sim::FiberId f : waiters) {
    eng.wake(f, eng.now());
  }
}

void CoherentCpu::do_prefetch(mem::Sva a, bool exclusive) {
  lazy_sync();
  if (!cfg().has_prefetch) {
    tick_cycles(1);
    return;
  }
  auto& c = cell();
  const mem::SubPageId sp = mem::subpage_of(a);

  const cache::LineState st = c.local.state(sp);
  const bool sufficient =
      exclusive ? cache::writable(st) : cache::readable(st);
  if (sufficient || c.inflight.contains(sp) ||
      c.inflight_count >= cfg().prefetch_depth) {
    tick_cycles(1);  // issue slot only; dropped or unnecessary
    return;
  }

  if (!home_is_local(sp)) {
    // A prefetch is only a hint: a cross-domain round trip to the home is
    // not worth modelling for one, so it is dropped at the ARD.
    tick_cycles(1);
    return;
  }

  if (!cm_.dir_contains(sp)) {
    // Prefetching untouched memory: first-touch ownership, no ring traffic.
    (void)first_touch(sp, /*atomic=*/false);
    tick_cycles(1);
    return;
  }

  ++c.pmon.prefetches_issued;
  ++c.inflight_count;
  c.inflight[sp];  // register the in-flight fetch (no waiters yet)
  hard_sync();

  CoherentMachine* cm = &cm_;
  const unsigned me = id_;
  const Acquire kind = exclusive ? Acquire::kExclusive : Acquire::kShared;
  cm_.transport(
      me, sp, cm_.target_leaf(me, sp, /*poststore=*/false),
      [cm, me, sp, kind](sim::Duration w) {
        auto& c2 = cm->cells_[me];
        ++c2.pmon.ring_requests;
        c2.pmon.inject_wait_ns += w;
        // If the sub-page is Atomic elsewhere (or busy) the prefetch is
        // simply dropped (no retry — it is only a hint). A deferred grant
        // only delays the waiters' wake-up to the grant wave.
        const auto d = cm->decide(me, sp, kind, /*witness=*/0);
        if (d.ok) (void)cm->grant(me, sp, kind, d.state);
        if (d.ok && d.deferred) {
          cm->engine_of(cm->domain_of_cell(me))
              .at(d.grant_time, [cm, me, sp] { finish_prefetch(cm, me, sp); });
          return;
        }
        finish_prefetch(cm, me, sp);
      });
  tick_cycles(2);  // issue cost; the fetch itself is asynchronous
}

void CoherentCpu::do_post_store(mem::Sva a) {
  lazy_sync();
  if (!cfg().has_poststore) {
    tick_cycles(1);
    return;
  }
  auto& c = cell();
  const mem::SubPageId sp = mem::subpage_of(a);
  if (!cache::writable(c.local.state(sp))) {
    tick_cycles(1);  // nothing to broadcast: we do not own the line
    return;
  }
  ++c.pmon.poststores_issued;
  // The issuing processor stalls until the data is written out to the
  // second-level cache (§3.3.3); the packet then rides asynchronously.
  tick_ns(cfg().localcache_write_ns);
  hard_sync();

  CoherentMachine* cm = &cm_;
  const unsigned me = id_;
  if (home_is_local(sp)) {
    cm_.transport(me, sp, cm_.target_leaf(me, sp, /*poststore=*/true),
                  [cm, me, sp](sim::Duration w) {
                    auto& c2 = cm->cells_[me];
                    c2.pmon.inject_wait_ns += w;
                    ++c2.pmon.ring_requests;
                    cm->poststore(me, sp);
                  });
    return;
  }
  // Remote home: ride our own ring to the ARD, then cross (fire and forget
  // — the issuer never waits on a poststore).
  const unsigned dr = machine_.domain_of_cell(id_);
  const unsigned dh = cm_.home_domain(sp);
  cm_.transport(me, sp, cm_.leaf_of(me),
                [cm, me, dr, dh, sp](sim::Duration w) {
                  auto& c2 = cm->cells_[me];
                  c2.pmon.inject_wait_ns += w;
                  ++c2.pmon.ring_requests;
                  cm->parallel_engine().send(
                      dr, dh, cm->parallel_engine().horizon(),
                      [cm, me, sp] { cm->poststore(me, sp); });
                });
}

// ---------------------------------------------------------------------------
// CoherentMachine
// ---------------------------------------------------------------------------

CoherentMachine::CoherentMachine(const MachineConfig& cfg) : Machine(cfg) {
  multi_domain_ = Machine::multi_domain();
  cells_.reserve(cfg_.nproc);
  std::uint64_t seed =
      0xA11CAC8Eull ^ (static_cast<std::uint64_t>(cfg_.nproc) << 32);
  for (unsigned i = 0; i < cfg_.nproc; ++i) {
    cells_.emplace_back(cfg_.subcache, cfg_.localcache, sim::splitmix64(seed));
  }
}

CoherentMachine::~CoherentMachine() = default;

void CoherentMachine::ensure_topology() {
  if (!dir_shards_.empty()) return;
  const unsigned leaves = std::max(1u, leaf_count());
  dir_shards_.resize(leaves);
  shard_stats_.resize(leaves);
  leaf_masks_.assign(leaves, cache::CellMask{});
  for (unsigned i = 0; i < cfg_.nproc; ++i) {
    leaf_masks_[leaf_of(i)].set(i);
  }
}

std::unique_ptr<Cpu> CoherentMachine::make_cpu(unsigned cell) {
  // make_cpu runs serially before any fiber; the virtual topology is
  // available here (it is not in the base constructor).
  ensure_topology();
  return std::make_unique<CoherentCpu>(*this, cell);
}

void CoherentMachine::reset_memory_system() {
  for (auto& c : cells_) {
    c.sub.clear();
    c.local.clear();
    c.inflight.clear();
    c.inflight_count = 0;
  }
  for (auto& shard : dir_shards_) shard.clear();
  if (checker_ != nullptr) checker_->reset();
}

namespace {

void save_mask(ckpt::Writer& w, const cache::CellMask& m) {
  for (unsigned i = 0; i < 1 + cache::CellMask::kHiWords; ++i) w.u64(m.word(i));
}

void load_mask(ckpt::Reader& r, cache::CellMask& m) {
  m.clear_all();
  for (unsigned i = 0; i < 1 + cache::CellMask::kHiWords; ++i) {
    std::uint64_t v = r.u64();
    while (v != 0) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(v));
      m.set(i * 64 + b);
      v &= v - 1;
    }
  }
}

void save_pmon(ckpt::Writer& w, const cache::PerfMonitor& p) {
  w.u64(p.subcache_hits);
  w.u64(p.subcache_misses);
  w.u64(p.subcache_block_allocs);
  w.u64(p.localcache_hits);
  w.u64(p.localcache_misses);
  w.u64(p.page_allocs);
  w.u64(p.pages_evicted);
  w.u64(p.ring_requests);
  w.u64(p.ring_nacks);
  w.u64(p.atomic_retries);
  w.u64(static_cast<std::uint64_t>(p.ring_time_ns));
  w.u64(static_cast<std::uint64_t>(p.inject_wait_ns));
  w.u64(p.invalidations_received);
  w.u64(p.snarfs);
  w.u64(p.prefetches_issued);
  w.u64(p.poststores_issued);
}

void load_pmon(ckpt::Reader& r, cache::PerfMonitor& p) {
  p.subcache_hits = r.u64();
  p.subcache_misses = r.u64();
  p.subcache_block_allocs = r.u64();
  p.localcache_hits = r.u64();
  p.localcache_misses = r.u64();
  p.page_allocs = r.u64();
  p.pages_evicted = r.u64();
  p.ring_requests = r.u64();
  p.ring_nacks = r.u64();
  p.atomic_retries = r.u64();
  p.ring_time_ns = static_cast<sim::Duration>(r.u64());
  p.inject_wait_ns = static_cast<sim::Duration>(r.u64());
  p.invalidations_received = r.u64();
  p.snarfs = r.u64();
  p.prefetches_issued = r.u64();
  p.poststores_issued = r.u64();
}

void save_rng(ckpt::Writer& w, const sim::Rng& rng) {
  std::uint64_t st[4];
  rng.save_state(st);
  for (const std::uint64_t word : st) w.u64(word);
}

void load_rng(ckpt::Reader& r, sim::Rng& rng) {
  std::uint64_t st[4];
  for (std::uint64_t& word : st) word = r.u64();
  rng.restore_state(st);
}

}  // namespace

void CoherentMachine::ckpt_assert_quiescent() const {
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].inflight_count != 0 || !cells_[c].inflight.empty()) {
      throw std::logic_error(
          "CoherentMachine::checkpoint: cell " + std::to_string(c) + " has " +
          std::to_string(cells_[c].inflight_count) +
          " in-flight prefetch(es) — capture refused; checkpoints are only "
          "legal at a quiescent point");
    }
  }
  for (std::size_t shard = 0; shard < dir_shards_.size(); ++shard) {
    dir_shards_[shard].for_each([shard](mem::SubPageId sp, const DirEntry& e) {
      if (e.busy) {
        throw std::logic_error(
            "CoherentMachine::checkpoint: directory entry for sub-page " +
            std::to_string(sp) + " (home leaf " + std::to_string(shard) +
            ") is inside a busy window — effects of a prior home decision "
            "are still in flight; capture refused");
      }
    });
  }
}

void CoherentMachine::ckpt_save(ckpt::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(cells_.size()));
  for (const Cell& c : cells_) {
    w.u64(c.sub.frame_count());
    c.sub.for_each_frame([&w](mem::BlockId tag, std::uint32_t present,
                              bool valid) {
      w.u64(tag);
      w.u32(present);
      w.boolean(valid);
    });
    w.u64(c.sub.generation());
    w.u64(c.local.frame_count());
    c.local.for_each_frame(
        [&w](mem::PageId tag, bool valid,
             const std::array<cache::LineState, mem::kSubPagesPerPage>& sp) {
          w.u64(tag);
          w.boolean(valid);
          for (const cache::LineState s : sp) {
            w.u8(static_cast<std::uint8_t>(s));
          }
        });
    w.u64(c.local.generation());
    save_pmon(w, c.pmon);
    save_rng(w, c.rng);
    save_rng(w, c.prog_rng);
  }

  // Directory shards: entries in ascending SubPageId order so the image is
  // canonical regardless of FlatMap probe layout. `busy` is asserted false
  // by ckpt_assert_quiescent and not stored.
  w.u32(static_cast<std::uint32_t>(dir_shards_.size()));
  std::vector<std::pair<mem::SubPageId, const DirEntry*>> entries;
  for (const auto& shard : dir_shards_) {
    entries.clear();
    shard.for_each([&entries](mem::SubPageId sp, const DirEntry& e) {
      entries.emplace_back(sp, &e);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.u64(entries.size());
    for (const auto& [sp, e] : entries) {
      w.u64(sp);
      save_mask(w, e->holders);
      save_mask(w, e->placeholders);
      w.i64(e->owner);
      w.boolean(e->atomic);
      w.u8(e->resident_leaf);
    }
  }
}

void CoherentMachine::ckpt_load(ckpt::Reader& r) {
  const std::uint32_t ncells = r.u32();
  if (ncells != cells_.size()) {
    throw std::runtime_error("CoherentMachine::restore: checkpoint has " +
                             std::to_string(ncells) + " cell(s), machine has " +
                             std::to_string(cells_.size()));
  }
  for (Cell& c : cells_) {
    const std::uint64_t nsub = r.u64();
    if (nsub != c.sub.frame_count()) {
      throw std::runtime_error(
          "CoherentMachine::restore: sub-cache frame count mismatch");
    }
    for (std::size_t i = 0; i < nsub; ++i) {
      const mem::BlockId tag = r.u64();
      const std::uint32_t present = r.u32();
      const bool valid = r.boolean();
      c.sub.restore_frame(i, tag, present, valid);
    }
    c.sub.restore_generation(r.u64());
    const std::uint64_t nloc = r.u64();
    if (nloc != c.local.frame_count()) {
      throw std::runtime_error(
          "CoherentMachine::restore: local-cache frame count mismatch");
    }
    std::array<cache::LineState, mem::kSubPagesPerPage> sp{};
    for (std::size_t i = 0; i < nloc; ++i) {
      const mem::PageId tag = r.u64();
      const bool valid = r.boolean();
      for (auto& s : sp) s = static_cast<cache::LineState>(r.u8());
      c.local.restore_frame(i, tag, valid, sp);
    }
    c.local.restore_generation(r.u64());
    load_pmon(r, c.pmon);
    load_rng(r, c.rng);
    load_rng(r, c.prog_rng);
    c.inflight.clear();
    c.inflight_count = 0;
  }

  const std::uint32_t nshards = r.u32();
  if (nshards > 0) {
    ensure_topology();
    if (nshards != dir_shards_.size()) {
      throw std::runtime_error(
          "CoherentMachine::restore: checkpoint has " +
          std::to_string(nshards) + " directory shard(s), machine topology "
          "has " + std::to_string(dir_shards_.size()));
    }
  }
  for (std::uint32_t s = 0; s < nshards; ++s) {
    auto& shard = dir_shards_[s];
    shard.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const mem::SubPageId sp = r.u64();
      DirEntry& e = shard[sp];
      load_mask(r, e.holders);
      load_mask(r, e.placeholders);
      e.owner = static_cast<std::int16_t>(r.i64());
      e.atomic = r.boolean();
      e.busy = false;
      e.resident_leaf = r.u8();
    }
  }
}

void CoherentMachine::topo_snapshot(obs::topo::Snapshot& s) const {
  Machine::topo_snapshot(s);
  s.leaves = std::max(1u, leaf_count());
  s.cells_per_leaf = cfg_.cells_per_leaf != 0 ? cfg_.cells_per_leaf : nproc();
  for (unsigned leaf = 0; leaf < shard_stats_.size(); ++leaf) {
    const ShardStats& st = shard_stats_[leaf];
    if (st.requests == 0) continue;
    obs::topo::ShardUse u;
    u.home_leaf = leaf;
    u.requests = st.requests;
    u.grants = st.grants;
    u.nacks = st.nacks;
    u.busy_ns = st.busy_ns;
    // FlatMap iterates in hash order; sort (count desc, sub-page asc) and
    // keep the top 8 so the report is deterministic and bounded.
    st.hot.for_each([&u](mem::SubPageId sp, std::uint64_t n) {
      u.hot.emplace_back(sp, n);
    });
    std::sort(u.hot.begin(), u.hot.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (u.hot.size() > 8) u.hot.resize(8);
    s.shards.push_back(std::move(u));
  }
}

CoherentMachine::DirView CoherentMachine::dir_view(mem::SubPageId sp) const {
  const auto* e = dir_find(sp);
  if (e == nullptr) return {};
  return {e->holders.word0(), e->placeholders.word0(), e->owner, e->atomic};
}

cache::CellMask CoherentMachine::dir_holders(mem::SubPageId sp) const {
  const auto* e = dir_find(sp);
  return e != nullptr ? e->holders : cache::CellMask{};
}

cache::CellMask CoherentMachine::dir_placeholders(mem::SubPageId sp) const {
  const auto* e = dir_find(sp);
  return e != nullptr ? e->placeholders : cache::CellMask{};
}

unsigned CoherentMachine::target_leaf(unsigned cell, mem::SubPageId sp,
                                      bool poststore) const {
  if (multi_domain_) return home_leaf(sp);
  const unsigned my = leaf_of(cell);
  static const DirEntry kUntouched{};
  const DirEntry* pe = dir_find(sp);
  const DirEntry& e = pe != nullptr ? *pe : kUntouched;
  if (poststore) {
    for (unsigned l = 0; l < leaf_count(); ++l) {
      if (l != my && e.placeholders.intersects(leaf_mask(l))) return l;
    }
    return my;
  }
  if (e.holders.none_except(cell)) {
    return e.holders.any() ? my : e.resident_leaf;  // we (or nobody) hold it
  }
  // If any copy lives on a remote leaf the transaction must reach it.
  for (unsigned l = 0; l < leaf_count(); ++l) {
    if (l != my && e.holders.intersects_except(leaf_mask(l), cell)) return l;
  }
  return my;
}

bool CoherentMachine::insert_line(unsigned cell, mem::SubPageId sp,
                                  cache::LineState st) {
  Cell& c = cells_[cell];
  const auto pa = c.local.touch(sp, st, c.rng);
  if (pa.allocated) ++c.pmon.page_allocs;
  if (pa.evicted) {
    ++c.pmon.pages_evicted;
    on_page_evicted(cell, pa.evicted_page);
    // Inclusion: the sub-cache may hold blocks of the evicted page.
    const mem::BlockId first_block =
        pa.evicted_page * (mem::kPageBytes / mem::kBlockBytes);
    for (std::size_t b = 0; b < mem::kPageBytes / mem::kBlockBytes; ++b) {
      c.sub.invalidate_block(first_block + b);
    }
    // The evicted page's directory fix-ups and sub-cache inclusion are both
    // done; the *requested* sub-page is audited by its own commit hook.
    KSR_CHECK_HOOK(if (hooks_on()) checker_->on_transition(
        check::Ev::kPageEvict, cell, pa.evicted_page * mem::kSubPagesPerPage));
  }
  return pa.allocated;
}

void CoherentMachine::mb_evict_fixup(unsigned cell, mem::SubPageId sp) {
  auto* pe = dir_find(sp);
  if (pe == nullptr) return;
  DirEntry& e = *pe;
  e.holders.clear(cell);
  e.placeholders.clear(cell);
  if (e.owner == static_cast<std::int16_t>(cell)) {
    e.owner = -1;
    e.atomic = false;  // evicting a locked line would be a program bug
  }
  if (e.holders.none()) {
    e.resident_leaf = static_cast<std::uint8_t>(leaf_of(cell));
  }
}

void CoherentMachine::on_page_evicted(unsigned cell, mem::PageId page) {
  const unsigned dc = domain_of_cell(cell);
  for (std::size_t idx = 0; idx < mem::kSubPagesPerPage; ++idx) {
    const mem::SubPageId sp = page * mem::kSubPagesPerPage + idx;
    const unsigned dh = home_domain(sp);
    if (dh == dc) {
      mb_evict_fixup(cell, sp);
      continue;
    }
    // Remote home: idempotent fire-and-forget fix-up. Channel FIFO order
    // guarantees it lands before any later request from this domain.
    par_.send(dc, dh, par_.horizon(),
              [this, cell, sp] { mb_evict_fixup(cell, sp); });
  }
}

void CoherentMachine::invalidate_at(unsigned cell, mem::SubPageId sp) {
  Cell& c = cells_[cell];
  c.local.set_state(sp, cache::LineState::kInvalid);
  c.sub.invalidate_subpage(sp);
  ++c.pmon.invalidations_received;
  // Runs on `cell`'s domain thread in every mode (synchronously when the
  // revoker shares the domain, via a boundary-channel event otherwise), so
  // log to that domain's shard on that domain's clock.
  const unsigned db = domain_of_cell(cell);
  if (obs::Tracer* tr = tracer_of(db)) {
    tr->log(engine_of(db).now(), obs::kCatCoherence, obs::kEvInvalidate, sp,
            cell);
  }
}

void CoherentMachine::snarf_at(unsigned cell, mem::SubPageId sp) {
  Cell& c = cells_[cell];
  c.local.set_state(sp, cache::LineState::kShared);
  ++c.pmon.snarfs;
  const unsigned db = domain_of_cell(cell);  // as invalidate_at
  if (obs::Tracer* tr = tracer_of(db)) {
    tr->log(engine_of(db).now(), obs::kCatCoherence, obs::kEvSnarf, sp, cell);
  }
}

// ---------------------------------------------------------------------------
// The directory protocol (docs/PARALLEL.md).
//
// One decision per request, made on the home domain's thread at decision
// time: decide() for acquires, poststore() for poststores. Every cache-state
// effect on a cell other than the requester goes through the Router. An
// effect on a home-domain cell — every cell, single-domain — commits in
// place, synchronously. An effect on another domain's cell travels:
// revocations (invalidate / downgrade-to-Shared) ride wave 1 at the
// current horizon h, grants (snarf refreshes, the requester's reply) ride
// wave 2 at h + Δ whenever any revocation crossed a domain (else at h).
// Horizons are Δ-multiples, so a revoked reader's last stale access and the
// grantee's first access are separated by a quantum barrier — no
// simulated-time overlap, no host race.
//
// Ordering rule: same-time event order carries NO protocol meaning (the
// schedule fuzzer permutes it freely), so a decision that put ANY effect
// on a boundary channel marks the entry `busy` until its last effect time.
// Conflicting requests NACK while busy; the next decision therefore runs
// at t >= that effect time and its own effects land at the *next* horizon
// — strictly later than everything in flight. Grant-then-revoke races on
// one cell are impossible by construction, not by channel-FIFO luck.
// ---------------------------------------------------------------------------

struct CoherentMachine::Router {
  CoherentMachine& m;
  mem::SubPageId sp;
  unsigned dh;                // home domain: the deciding thread
  bool cross_revoke = false;  // a revocation rode the channel (wave 1)
  bool cross_effect = false;  // anything rode the channel

  /// Wave-2 time: one quantum after the revocations when any crossed.
  [[nodiscard]] sim::Time grant_time() const noexcept {
    const sim::Time h = m.par_.horizon();
    return cross_revoke ? h + m.par_.quantum_ns() : h;
  }

  /// Wave 1: `b` loses its copy (kInvalid) or its write rights (kShared).
  void revoke(unsigned b, cache::LineState to) {
    const unsigned db = m.domain_of_cell(b);
    if (db == dh) {
      apply_revoke(m, b, sp, to);
      return;
    }
    cross_revoke = true;
    cross_effect = true;
    m.par_.send(dh, db, m.par_.horizon(), [cm = &m, b, sp = sp, to] {
      apply_revoke(*cm, b, sp, to);
    });
  }

  /// Wave 2: `b`'s placeholder is refreshed with the passing data. pmon
  /// and trace mutations run on the target's own thread either way.
  void refresh(unsigned b) {
    const unsigned db = m.domain_of_cell(b);
    if (db == dh) {
      m.snarf_at(b, sp);
      return;
    }
    cross_effect = true;
    m.par_.send(dh, db, grant_time(),
                [cm = &m, b, sp = sp] { cm->snarf_at(b, sp); });
  }

  /// Hold `e` busy until `until` if any effect (or the reply) rides the
  /// channel: the next decision then runs strictly after the last effect
  /// lands, and its own effects land at a strictly later horizon.
  void hold(DirEntry& e, sim::Time until) {
    if (!cross_effect) return;
    e.busy = true;
    sim::Engine& eng = m.engine_of(dh);
    m.shard_stats_[m.home_leaf(sp)].busy_ns +=
        static_cast<std::uint64_t>(until - eng.now());
    // Re-find by id when clearing: FlatMap storage may move underneath.
    eng.at(until, [cm = &m, sp = sp] {
      if (auto* p = cm->dir_find(sp)) p->busy = false;
    });
  }

  static void apply_revoke(CoherentMachine& cm, unsigned b, mem::SubPageId sp,
                           cache::LineState to) {
    if (to == cache::LineState::kInvalid) {
      cm.invalidate_at(b, sp);
    } else {
      cm.cells_[b].local.set_state(sp, to);
    }
  }
};

CoherentMachine::Decision CoherentMachine::decide(unsigned cell,
                                                  mem::SubPageId sp,
                                                  Acquire kind,
                                                  std::uint32_t witness) {
  const unsigned dh = home_domain(sp);
  obs::Tracer* tr = tracer_of(dh);
  const auto me = static_cast<std::int16_t>(cell);
  // A first touch decided here (the requester's domain does not own the
  // home shard) starts from the empty entry this creates.
  DirEntry& e = dir_entry(sp);
  if (e.busy || (e.atomic && e.owner != me)) {
    shard_note(sp, /*granted=*/false);
    if (tr != nullptr) {
      tr->log(engine_of(dh).now(), obs::kCatCoherence, obs::kEvNack, sp, cell);
    }
    KSR_CHECK_HOOK(if (hooks_on()) checker_->on_transition(
        check::Ev::kNack, cell, sp));
    return {};  // NACK: locked elsewhere, or a prior decision is in flight
  }
  shard_note(sp, /*granted=*/true);
  if (tr != nullptr) {
    tr->log(engine_of(dh).now(), obs::kCatCoherence,
            kind == Acquire::kAtomic   ? obs::kEvGrantAtomic
            : kind == Acquire::kShared ? obs::kEvGrantShared
                                       : obs::kEvGrantExclusive,
            sp, cell, static_cast<std::int64_t>(e.holders.word0()), witness);
  }

  Router r{*this, sp, dh};
  Decision d;
  d.ok = true;
  if (kind == Acquire::kShared) {
    // Downgrade a previous exclusive owner.
    if (e.owner >= 0 && e.owner != me) {
      r.revoke(static_cast<unsigned>(e.owner), cache::LineState::kShared);
    }
    e.owner = -1;
    e.atomic = false;
    // Read-snarfing: the data passing on the ring refreshes every invalid
    // placeholder (paper §2, §3.2.2).
    if (cfg_.read_snarfing) {
      e.placeholders.for_each_except(cell, [&](unsigned b) {
        r.refresh(b);
        e.holders.set(b);
      });
      e.placeholders.retain_only(cell);
    }
    e.placeholders.clear(cell);
    const bool sole = e.holders.none_except(cell);
    e.holders.set(cell);
    d.state = sole ? cache::LineState::kExclusive : cache::LineState::kShared;
    if (sole) {
      e.owner = me;
      e.resident_leaf = static_cast<std::uint8_t>(leaf_of(cell));
    }
  } else {
    e.holders.for_each_except(cell, [&](unsigned b) {
      r.revoke(b, cache::LineState::kInvalid);
      e.placeholders.set(b);
    });
    e.placeholders.clear(cell);
    e.holders.assign_single(cell);
    e.owner = me;
    e.atomic = (kind == Acquire::kAtomic);
    e.resident_leaf = static_cast<std::uint8_t>(leaf_of(cell));
    d.state = e.atomic ? cache::LineState::kAtomic
                       : cache::LineState::kExclusive;
  }
  // Cache state commits at decision time; a cross-domain revocation only
  // defers the *timing* of the grant to the grant wave.
  d.deferred = r.cross_revoke;
  d.grant_time = r.grant_time();
  if (domain_of_cell(cell) != dh) r.cross_effect = true;  // the reply rides
  r.hold(e, d.grant_time);
  return d;
}

void CoherentMachine::poststore(unsigned cell, mem::SubPageId sp) {
  DirEntry* pe = dir_find(sp);
  if (pe == nullptr) return;
  DirEntry& e = *pe;
  const unsigned dh = home_domain(sp);
  cache::CellMask ph = e.placeholders;
  ph.clear(cell);
  if (obs::Tracer* tr = tracer_of(dh)) {
    tr->log(engine_of(dh).now(), obs::kCatCoherence, obs::kEvPoststore, sp,
            cell, static_cast<std::int64_t>(ph.word0()));
  }
  // The update is dropped when nobody listens (pure bandwidth waste), while
  // a prior decision's effects are in flight (`busy`), or when the line was
  // locked (get_subpage) by another cell while the packet was in flight —
  // the issuer's own copy has then already been invalidated, and refreshing
  // placeholders would hand out readable copies of an Atomic line, which
  // every read and acquire path NACKs against.
  if (!e.atomic && !e.busy && ph.any()) {
    Router r{*this, sp, dh};
    // Multiple copies now exist: the writer loses exclusivity — the §3.3.3
    // poststore pitfall (next-phase writers must re-invalidate).
    if (e.owner >= 0) {
      r.revoke(static_cast<unsigned>(e.owner), cache::LineState::kShared);
      e.owner = -1;
    }
    ph.for_each([&](unsigned b) {
      r.refresh(b);
      e.holders.set(b);
    });
    e.placeholders.retain_only(cell);
    r.hold(e, r.grant_time());
  }
  KSR_CHECK_HOOK(if (hooks_on()) checker_->on_transition(
      check::Ev::kPoststore, cell, sp));
}

bool CoherentMachine::grant(unsigned cell, mem::SubPageId sp, Acquire kind,
                            cache::LineState st) {
  (void)kind;  // read by the checker hook only
  const bool page_alloc = insert_line(cell, sp, st);
  KSR_CHECK_HOOK(if (hooks_on()) checker_->on_transition(
      kind == Acquire::kAtomic   ? check::Ev::kGrantAtomic
      : kind == Acquire::kShared ? check::Ev::kGrantShared
                                 : check::Ev::kGrantExclusive,
      cell, sp));
  return page_alloc;
}

void CoherentMachine::mb_home_request(unsigned cell, unsigned req_dom,
                                      mem::SubPageId sp, Acquire kind,
                                      std::uint32_t witness, Decision* rep,
                                      sim::FiberId fid) {
  // Runs in the home domain at channel-delivery time: model the level-1
  // transit + home-ring transaction, then decide and reply. The reply event
  // applies the grant on the requester's thread *before* waking the fiber,
  // so the channel's FIFO order serializes it against any later revocation
  // the home emits toward the same domain.
  home_transport(
      leaf_of(cell), home_leaf(sp), sp,
      [this, cell, req_dom, sp, kind, witness, rep, fid](sim::Duration) {
        const Decision d = decide(cell, sp, kind, witness);
        par_.send(home_domain(sp), req_dom,
                  d.ok ? d.grant_time : par_.horizon(),
                  [this, cell, sp, kind, ok = d.ok, st = d.state, rep, fid,
                   req_dom] {
                    rep->ok = ok;
                    if (ok) rep->page_alloc = grant(cell, sp, kind, st);
                    sim::Engine& e = engine_of(req_dom);
                    e.wake(fid, e.now());
                  });
      });
}

void CoherentMachine::mb_release_home(unsigned cell, mem::SubPageId sp) {
  auto* pe = dir_find(sp);
  if (pe != nullptr && pe->atomic &&
      pe->owner == static_cast<std::int16_t>(cell)) {
    pe->atomic = false;  // acquires NACKed until this landed — as a real
                         // unlock packet in flight would behave
  }
}

}  // namespace ksr::machine
