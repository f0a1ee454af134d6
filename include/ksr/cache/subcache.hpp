#pragma once

#include <cstdint>
#include <vector>

#include "ksr/cache/set_index.hpp"
#include "ksr/mem/geometry.hpp"
#include "ksr/sim/rng.hpp"

// First-level (sub-)cache model.
//
// The KSR-1 sub-cache holds 256 KB of data (the 256 KB instruction side is
// not modeled: programs are not instruction-accurate). It is 2-way set
// associative with *random* replacement. Allocation is per 2 KB block;
// transfer from the local cache is per 64 B sub-block, brought in on demand
// after the block is allocated (paper §2). The random replacement policy is
// load-bearing for the paper: it causes the SP application's base layout to
// thrash (§3.3.3), fixed by data padding.
namespace ksr::cache {

class SubCache {
 public:
  struct Config {
    std::size_t capacity_bytes = 256 * 1024;
    unsigned ways = 2;
  };

  struct Access {
    bool hit = false;             // sub-block was present
    bool block_allocated = false; // a 2 KB block frame had to be allocated
    bool block_evicted = false;   // ...displacing a valid block
  };

  SubCache() : SubCache(Config{}) {}
  explicit SubCache(const Config& cfg)
      : ways_(cfg.ways),
        set_of_(cfg.capacity_bytes / (cfg.ways * mem::kBlockBytes)),
        frames_(set_of_.sets() * ways_) {}

  /// Touch the sub-block containing `a`; allocate block / fill sub-block as
  /// needed. Purely functional bookkeeping — the caller charges time.
  Access access(mem::Sva a, sim::Rng& rng) {
    const mem::BlockId blk = mem::block_of(a);
    const std::size_t sub =
        (a / mem::kSubBlockBytes) % mem::kSubBlocksPerBlock;
    const std::size_t set = set_of_(blk);
    Frame* frame = find(blk, set);
    Access out;
    if (frame == nullptr) {
      out.block_allocated = true;
      frame = victim(set, rng, out.block_evicted);
      frame->tag = blk;
      frame->valid = true;
      frame->present = 0;
    }
    const std::uint32_t bit = 1u << sub;
    out.hit = (frame->present & bit) != 0;
    frame->present |= bit;
    if (out.block_evicted) ++gen_;  // a resident block lost its sub-blocks
    return out;
  }

  /// Monotone counter bumped whenever resident data may have been removed
  /// (eviction, invalidation, clear). Lets callers hold a one-entry MRU
  /// "this sub-block is present" hint and revalidate it in O(1): the hint
  /// is trustworthy iff the generation is unchanged, because every mutation
  /// that can remove presence bumps it (additions never invalidate a hint).
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

  /// True if the sub-block containing `a` is resident (no state change).
  [[nodiscard]] bool contains(mem::Sva a) const noexcept {
    const mem::BlockId blk = mem::block_of(a);
    const std::size_t set = set_of_(blk);
    for (std::size_t w = 0; w < ways_; ++w) {
      const Frame& f = frames_[set * ways_ + w];
      if (f.valid && f.tag == blk) {
        const std::size_t sub =
            (a / mem::kSubBlockBytes) % mem::kSubBlocksPerBlock;
        return (f.present & (1u << sub)) != 0;
      }
    }
    return false;
  }

  /// Coherence: drop the (two) sub-blocks of a sub-page.
  void invalidate_subpage(mem::SubPageId sp) noexcept {
    ++gen_;
    const mem::Sva base = mem::subpage_base(sp);
    const mem::BlockId blk = mem::block_of(base);
    const std::size_t set = set_of_(blk);
    for (std::size_t w = 0; w < ways_; ++w) {
      Frame& f = frames_[set * ways_ + w];
      if (f.valid && f.tag == blk) {
        const std::size_t first =
            (base / mem::kSubBlockBytes) % mem::kSubBlocksPerBlock;
        const auto per_subpage = mem::kSubPageBytes / mem::kSubBlockBytes;
        for (std::size_t i = 0; i < per_subpage; ++i) {
          f.present &= ~(1u << (first + i));
        }
        return;
      }
    }
  }

  /// Coherence/inclusion: drop an entire 2 KB block (used when the local
  /// cache evicts a page containing it).
  void invalidate_block(mem::BlockId blk) noexcept {
    ++gen_;
    const std::size_t set = set_of_(blk);
    for (std::size_t w = 0; w < ways_; ++w) {
      Frame& f = frames_[set * ways_ + w];
      if (f.valid && f.tag == blk) {
        f.valid = false;
        f.present = 0;
        return;
      }
    }
  }

  void clear() noexcept {
    ++gen_;
    for (auto& f : frames_) f = Frame{};
  }

  [[nodiscard]] std::size_t sets() const noexcept { return set_of_.sets(); }
  [[nodiscard]] unsigned ways() const noexcept { return static_cast<unsigned>(ways_); }

  /// --- Checkpoint support (docs/CHECKPOINT.md). ---
  /// Frames are exposed positionally: storage order (set-major, way-minor)
  /// is part of machine state because victim() prefers the first invalid
  /// way, so restore must put each frame back into the same slot.
  [[nodiscard]] std::size_t frame_count() const noexcept { return frames_.size(); }

  /// Visit every frame slot in storage order as f(tag, present, valid).
  template <typename F>
  void for_each_frame(F&& f) const {
    for (const Frame& fr : frames_) f(fr.tag, fr.present, fr.valid);
  }

  void restore_frame(std::size_t i, mem::BlockId tag, std::uint32_t present,
                     bool valid) noexcept {
    Frame& f = frames_[i];
    f.tag = tag;
    f.present = present;
    f.valid = valid;
  }

  void restore_generation(std::uint64_t gen) noexcept { gen_ = gen; }

 private:
  struct Frame {
    mem::BlockId tag = 0;
    std::uint32_t present = 0;  // one bit per 64 B sub-block in the 2 KB block
    bool valid = false;
  };

  std::uint64_t gen_ = 0;

  Frame* find(mem::BlockId blk, std::size_t set) noexcept {
    for (std::size_t w = 0; w < ways_; ++w) {
      Frame& f = frames_[set * ways_ + w];
      if (f.valid && f.tag == blk) return &f;
    }
    return nullptr;
  }

  Frame* victim(std::size_t set, sim::Rng& rng, bool& evicted_valid) noexcept {
    // Prefer an invalid way; otherwise evict a random way (the KSR-1 policy).
    for (std::size_t w = 0; w < ways_; ++w) {
      Frame& f = frames_[set * ways_ + w];
      if (!f.valid) {
        evicted_valid = false;
        return &f;
      }
    }
    evicted_valid = true;
    return &frames_[set * ways_ + rng.below(ways_)];
  }

  std::size_t ways_;
  SetIndex set_of_;
  std::vector<Frame> frames_;
};

}  // namespace ksr::cache
