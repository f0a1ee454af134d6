#include "ksr/nas/is.hpp"

#include <algorithm>

#include "ksr/sim/rng.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/padded.hpp"

namespace ksr::nas {

namespace {
constexpr std::size_t kIntsPerSubPage =
    mem::kSubPageBytes / sizeof(std::uint32_t);
}  // namespace

std::vector<std::uint32_t> make_keys(const IsConfig& cfg) {
  const std::size_t n = 1ull << cfg.log2_keys;
  const std::uint32_t buckets = 1u << cfg.log2_buckets;
  sim::Rng rng(cfg.seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) {
    // NAS IS uses an average of four uniforms (roughly Gaussian-ish
    // concentration in the middle buckets); keep that shape.
    std::uint64_t acc = 0;
    for (int j = 0; j < 4; ++j) acc += rng.below(buckets);
    k = static_cast<std::uint32_t>(acc / 4);
  }
  return keys;
}

IsSplit::IsSplit(machine::Machine& m, const IsConfig& cfg)
    : m_(m),
      cfg_(cfg),
      n_(1ull << cfg.log2_keys),
      nbuckets_(1ull << cfg.log2_buckets),
      // Per-processor replicated counts: one page-aligned chunk per
      // processor (replication is cheap in a 32 MB local cache — §3.3.2).
      chunk_ints_(std::max<std::size_t>(
          nbuckets_, mem::kPageBytes / sizeof(std::uint32_t))),
      host_keys_(make_keys(cfg)),
      slot_(nbuckets_) {
  // The whole allocation sequence, warm-up barrier included, so a
  // checkpoint captured on one IsSplit machine restores onto another: the
  // heap prefix rule (docs/CHECKPOINT.md) requires the restoring machine to
  // have re-issued the donor's allocations.
  //
  // Bucket -> keyden slot mapping. Identity by default: neighbouring
  // processors' portions share the sub-page at their boundary (the false
  // sharing the profiler must catch). With cfg.pad_buckets every portion
  // starts on a fresh sub-page, so no two portions share a coherence unit.
  const unsigned nproc = m_.nproc();
  std::size_t keyden_ints = nbuckets_;
  if (cfg_.pad_buckets) {
    std::size_t next = 0;
    for (unsigned p = 0; p < nproc; ++p) {
      const std::size_t lo = nbuckets_ * p / nproc;
      const std::size_t hi = nbuckets_ * (p + 1) / nproc;
      for (std::size_t b = lo; b < hi; ++b) slot_[b] = next + (b - lo);
      next += (hi - lo + kIntsPerSubPage - 1) / kIntsPerSubPage *
              kIntsPerSubPage;
    }
    keyden_ints = std::max<std::size_t>(next, 1);
  } else {
    for (std::size_t b = 0; b < nbuckets_; ++b) slot_[b] = b;
  }
  keys_ = m_.alloc<std::uint32_t>("is.keys", n_);
  rank_ = m_.alloc<std::uint32_t>("is.rank", n_);
  keyden_ = m_.alloc<std::uint32_t>("is.keyden", keyden_ints);
  keyden_t_ = m_.alloc<std::uint32_t>(
      "is.keyden_t", static_cast<std::size_t>(nproc) * chunk_ints_,
      machine::Placement::blocked(chunk_ints_ * sizeof(std::uint32_t)));
  tmp_sum_ = sync::Padded<std::uint32_t>(m_, "is.tmp", nproc);
  warm_barrier_ = sync::make_barrier(m_, sync::BarrierKind::kSystem);
}

void IsSplit::warmup(machine::Cpu& cpu) {
  // Untimed: distribute keys (each processor writes its chunk, establishing
  // ownership) and zero the local counts.
  const unsigned nproc = m_.nproc();
  const unsigned me = cpu.id();
  const std::size_t k_lo = n_ * me / nproc;
  const std::size_t k_hi = n_ * (me + 1) / nproc;
  const std::size_t b_lo = nbuckets_ * me / nproc;
  const std::size_t b_hi = nbuckets_ * (me + 1) / nproc;
  const std::size_t my_base = static_cast<std::size_t>(me) * chunk_ints_;
  for (std::size_t i = k_lo; i < k_hi; ++i) {
    cpu.write(keys_, i, host_keys_[i]);
  }
  for (std::size_t b = 0; b < nbuckets_; ++b) {
    cpu.write(keyden_t_, my_base + b, 0);
  }
  for (std::size_t b = b_lo; b < b_hi; ++b) cpu.write(keyden_, slot_[b], 0);
  warm_barrier_->arrive(cpu);
}

double IsSplit::rank(machine::Cpu& cpu, sync::Barrier& barrier) {
  const unsigned nproc = m_.nproc();
  const unsigned me = cpu.id();
  const std::size_t k_lo = n_ * me / nproc;
  const std::size_t k_hi = n_ * (me + 1) / nproc;
  const std::size_t b_lo = nbuckets_ * me / nproc;
  const std::size_t b_hi = nbuckets_ * (me + 1) / nproc;
  const std::size_t my_base = static_cast<std::size_t>(me) * chunk_ints_;
  const double t0 = cpu.seconds();

  // ---- Phase 1: local bucket counts (no synchronization).
  for (std::size_t i = k_lo; i < k_hi; ++i) {
    const std::uint32_t k = cpu.read(keys_, i);
    cpu.write(keyden_t_, my_base + k, cpu.read(keyden_t_, my_base + k) + 1);
    cpu.work(cfg_.work_per_key);
  }
  barrier.arrive(cpu);

  // ---- Phase 2: accumulate my portion of the global counts from every
  // processor's local counts (all-to-all read traffic on the ring).
  if (cfg_.use_prefetch) {
    // Software-pipelined prefetch of the remote count slices (staggered
    // start per cell so the ring sees spread, not bursts).
    const unsigned depth = m_.config().prefetch_depth;
    unsigned issued = 0;
    for (unsigned off = 1; off < nproc; ++off) {
      const unsigned src = (me + off) % nproc;
      const mem::Sva a0 =
          keyden_t_.addr(static_cast<std::size_t>(src) * chunk_ints_ + b_lo);
      const mem::Sva a1 =
          keyden_t_.addr(static_cast<std::size_t>(src) * chunk_ints_ + b_hi);
      for (mem::Sva a = a0; a < a1; a += mem::kSubPageBytes) {
        cpu.prefetch(a);
        if (++issued % depth == 0) cpu.work(190);
      }
    }
  }
  for (std::size_t b = b_lo; b < b_hi; ++b) {
    std::uint32_t sum = 0;
    for (unsigned p = 0; p < nproc; ++p) {
      sum += cpu.read(keyden_t_, static_cast<std::size_t>(p) * chunk_ints_ + b);
      cpu.work(2);
    }
    cpu.write(keyden_, slot_[b], sum);
  }
  barrier.arrive(cpu);

  // ---- Phase 3: partial prefix sums over my portion.
  std::uint32_t running = 0;
  for (std::size_t b = b_lo; b < b_hi; ++b) {
    running += cpu.read(keyden_, slot_[b]);
    cpu.write(keyden_, slot_[b], running);
    cpu.work(2);
  }
  tmp_sum_.write(cpu, me, running);
  barrier.arrive(cpu);

  // ---- Phase 4: SERIAL — cell 0 turns the per-processor maxima into
  // inclusive prefix sums. Time grows with P, and the operands live in
  // remote caches (they were just written by every processor).
  if (me == 0) {
    const double s0 = cpu.seconds();
    std::uint32_t acc = 0;
    for (unsigned p = 0; p < nproc; ++p) {
      acc += tmp_sum_.read(cpu, p);
      tmp_sum_.write(cpu, p, acc);
      cpu.work(2);
    }
    serial_seconds_ = cpu.seconds() - s0;
  }
  barrier.arrive(cpu);

  // ---- Phase 5: offset my portion by the previous processors' total.
  if (me > 0) {
    const std::uint32_t offset = tmp_sum_.read(cpu, me - 1);
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      cpu.write(keyden_, slot_[b], cpu.read(keyden_, slot_[b]) + offset);
      cpu.work(2);
    }
  }
  barrier.arrive(cpu);

  // ---- Phase 6: atomically snapshot keyden into my local copy and
  // decrement it by my counts — one sub-page locked at a time, so the
  // processors pipeline through the array (paper §3.3.2). Chunks are runs
  // of buckets whose slots are contiguous within one sub-page: with the
  // identity mapping that is exactly the fixed 32-bucket stride, and with
  // padding it additionally splits at (sub-page-aligned) portion starts.
  for (std::size_t b0 = 0; b0 < nbuckets_;) {
    const std::size_t page = slot_[b0] / kIntsPerSubPage;
    std::size_t b1 = b0 + 1;
    while (b1 < nbuckets_ && slot_[b1] == slot_[b1 - 1] + 1 &&
           slot_[b1] / kIntsPerSubPage == page) {
      ++b1;
    }
    cpu.get_subpage(keyden_.addr(slot_[b0]));
    for (std::size_t b = b0; b < b1; ++b) {
      const std::uint32_t snapshot = cpu.read(keyden_, slot_[b]);
      const std::uint32_t mine = cpu.read(keyden_t_, my_base + b);
      cpu.write(keyden_, slot_[b], snapshot - mine);
      cpu.write(keyden_t_, my_base + b, snapshot);
      cpu.work(4);
    }
    cpu.release_subpage(keyden_.addr(slot_[b0]));
    b0 = b1;
  }
  barrier.arrive(cpu);

  // ---- Phase 7: rank my keys from my private snapshot.
  for (std::size_t i = k_lo; i < k_hi; ++i) {
    const std::uint32_t k = cpu.read(keys_, i);
    const std::uint32_t pos = cpu.read(keyden_t_, my_base + k);
    cpu.write(keyden_t_, my_base + k, pos - 1);
    cpu.write(rank_, i, pos - 1);
    cpu.work(cfg_.work_per_key);
  }
  barrier.arrive(cpu);
  return cpu.seconds() - t0;
}

IsResult IsSplit::result(const std::vector<double>& cell_seconds) const {
  IsResult out;
  out.seconds = *std::max_element(cell_seconds.begin(), cell_seconds.end());
  out.serial_phase_seconds = serial_seconds_;

  // Host-side validation: ranks are a permutation that sorts the keys.
  std::vector<std::uint32_t> by_rank(n_, 0);
  std::vector<bool> used(n_, false);
  bool ok = true;
  for (std::size_t i = 0; i < n_ && ok; ++i) {
    const std::uint32_t r = rank_.value(i);
    if (r >= n_ || used[r]) {
      ok = false;
    } else {
      used[r] = true;
      by_rank[r] = keys_.value(i);
    }
  }
  for (std::size_t i = 1; i < n_ && ok; ++i) {
    if (by_rank[i - 1] > by_rank[i]) ok = false;
  }
  out.ranks_valid = ok;
  return out;
}

IsResult run_is(machine::Machine& m, const IsConfig& cfg) {
  IsSplit is(m, cfg);
  // Each cell writes only its own slot: fibers of different domains run on
  // different host threads.
  std::vector<double> cell_seconds(m.nproc(), 0.0);
  m.run([&](machine::Cpu& cpu) {
    is.warmup(cpu);
    cell_seconds[cpu.id()] = is.rank(cpu, *is.warm_barrier_);
  });
  return is.result(cell_seconds);
}

void IsSplit::run_warmup() {
  m_.run([&](machine::Cpu& cpu) { warmup(cpu); });
}

IsResult IsSplit::run_ranked() {
  // Fresh barrier for the ranking run, allocated after the checkpoint
  // boundary: the cold flow allocates it after run_warmup(), the fork flow
  // after restore(), so both see the same heap layout and both start the
  // phases with pristine barrier state.
  auto barrier = sync::make_barrier(m_, sync::BarrierKind::kSystem);
  std::vector<double> cell_seconds(m_.nproc(), 0.0);
  m_.run([&](machine::Cpu& cpu) {
    cell_seconds[cpu.id()] = rank(cpu, *barrier);
  });
  return result(cell_seconds);
}

}  // namespace ksr::nas
