#pragma once

#include <array>
#include <cstdint>

#include "ksr/cache/state.hpp"
#include "ksr/mem/geometry.hpp"
#include "ksr/sim/rng.hpp"
#include "ksr/sim/zeroed_array.hpp"

// Second-level (local) cache model.
//
// 32 MB per cell, 16-way set associative, random replacement. Allocation is
// per 16 KB page; on allocation only the accessed sub-page is brought in,
// the other 127 sub-pages of the page become Invalid *placeholders* that are
// filled on demand (paper §2). Placeholders matter twice in the paper:
// read-snarfing refreshes them when matching data passes on the ring, and
// poststore pushes updates into them.
namespace ksr::cache {

class LocalCache {
 public:
  struct Config {
    std::size_t capacity_bytes = 32ull * 1024 * 1024;
    unsigned ways = 16;
  };

  /// Result of looking up a sub-page.
  struct Lookup {
    bool page_present = false;       // a frame for the page exists
    LineState state = LineState::kInvalid;
  };

  /// Result of making a frame available for a page.
  struct PageAlloc {
    bool allocated = false;  // a new frame was claimed
    bool evicted = false;    // ...displacing a valid page
    mem::PageId evicted_page = 0;
    // States of the 128 sub-pages of the evicted page (by index within the
    // page); the coherence layer removes this cell from their copy sets.
    std::array<LineState, mem::kSubPagesPerPage> evicted_states{};
  };

  LocalCache() : LocalCache(Config{}) {}
  explicit LocalCache(const Config& cfg)
      : ways_(cfg.ways),
        sets_(cfg.capacity_bytes / (cfg.ways * mem::kPageBytes)),
        frames_(sets_ * ways_) {}

  [[nodiscard]] Lookup lookup(mem::SubPageId sp) const noexcept {
    const mem::PageId pg = mem::page_of_subpage(sp);
    const Frame* f = find(pg);
    if (f == nullptr) return {};
    return {true, f->sp[index_in_page(sp)]};
  }

  /// Ensure a frame exists for the page of `sp` (allocating/evicting if
  /// necessary) and set the sub-page's state.
  PageAlloc touch(mem::SubPageId sp, LineState st, sim::Rng& rng) {
    ++gen_;
    const mem::PageId pg = mem::page_of_subpage(sp);
    PageAlloc out;
    Frame* f = find(pg);
    if (f == nullptr) {
      out.allocated = true;
      f = victim(pg, rng, out);
      f->tag = pg;
      f->valid = true;
      f->sp.fill(LineState::kInvalid);
    }
    f->sp[index_in_page(sp)] = st;
    return out;
  }

  /// Change the state of a resident sub-page. No-op if the page frame is
  /// absent (e.g. already evicted).
  void set_state(mem::SubPageId sp, LineState st) noexcept {
    ++gen_;
    Frame* f = find(mem::page_of_subpage(sp));
    if (f != nullptr) f->sp[index_in_page(sp)] = st;
  }

  /// Monotone counter bumped on every state mutation (touch, set_state,
  /// clear). A cached "this sub-page is writable here" hint stays valid
  /// exactly while the generation is unchanged.
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

  [[nodiscard]] LineState state(mem::SubPageId sp) const noexcept {
    const Frame* f = find(mem::page_of_subpage(sp));
    return f ? f->sp[index_in_page(sp)] : LineState::kInvalid;
  }

  void clear() noexcept {
    ++gen_;
    for (auto& f : frames_) {
      f.valid = false;
      f.sp.fill(LineState::kInvalid);
    }
  }

  /// Visit every non-Invalid resident sub-page as f(sub_page_id, state).
  /// Host-side audits only (invariant checker); frame order is placement
  /// order, so simulated behaviour must never depend on it.
  template <typename F>
  void for_each_subpage(F&& f) const {
    for (const Frame& fr : frames_) {
      if (!fr.valid) continue;
      for (std::size_t i = 0; i < fr.sp.size(); ++i) {
        if (fr.sp[i] != LineState::kInvalid) {
          f(static_cast<mem::SubPageId>(fr.tag * mem::kSubPagesPerPage + i),
            fr.sp[i]);
        }
      }
    }
  }

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] unsigned ways() const noexcept { return static_cast<unsigned>(ways_); }

  /// --- Checkpoint support (docs/CHECKPOINT.md). ---
  /// Positional frame access: storage order is part of machine state
  /// (victim() prefers the first invalid way), so restore is by slot index.
  [[nodiscard]] std::size_t frame_count() const noexcept { return frames_.size(); }

  /// Visit every frame slot in storage order as f(tag, valid, states) where
  /// `states` is the per-sub-page LineState array.
  template <typename F>
  void for_each_frame(F&& f) const {
    for (const Frame& fr : frames_) f(fr.tag, fr.valid, fr.sp);
  }

  void restore_frame(std::size_t i, mem::PageId tag, bool valid,
                     const std::array<LineState, mem::kSubPagesPerPage>& sp) noexcept {
    Frame& f = frames_[i];
    f.tag = tag;
    f.valid = valid;
    f.sp = sp;
  }

  void restore_generation(std::uint64_t gen) noexcept { gen_ = gen; }

  [[nodiscard]] static std::size_t index_in_page(mem::SubPageId sp) noexcept {
    return static_cast<std::size_t>(sp % mem::kSubPagesPerPage);
  }

 private:
  struct Frame {
    mem::PageId tag = 0;
    bool valid = false;
    std::array<LineState, mem::kSubPagesPerPage> sp{};
  };

  [[nodiscard]] std::size_t set_of(mem::PageId pg) const noexcept {
    return static_cast<std::size_t>(pg) % sets_;
  }

  Frame* find(mem::PageId pg) noexcept {
    const std::size_t set = set_of(pg);
    for (std::size_t w = 0; w < ways_; ++w) {
      Frame& f = frames_[set * ways_ + w];
      if (f.valid && f.tag == pg) return &f;
    }
    return nullptr;
  }
  const Frame* find(mem::PageId pg) const noexcept {
    return const_cast<LocalCache*>(this)->find(pg);
  }

  Frame* victim(mem::PageId pg, sim::Rng& rng, PageAlloc& out) noexcept {
    const std::size_t set = set_of(pg);
    for (std::size_t w = 0; w < ways_; ++w) {
      Frame& f = frames_[set * ways_ + w];
      if (!f.valid) return &f;
    }
    // Random replacement, but never evict a page holding an Atomic
    // (locked) sub-page — the hardware keeps locked lines resident.
    std::size_t candidates[64];
    std::size_t n = 0;
    for (std::size_t w = 0; w < ways_ && n < 64; ++w) {
      const Frame& f = frames_[set * ways_ + w];
      bool locked = false;
      for (const LineState s : f.sp) {
        if (s == LineState::kAtomic) {
          locked = true;
          break;
        }
      }
      if (!locked) candidates[n++] = w;
    }
    const std::size_t pick =
        n > 0 ? candidates[rng.below(n)] : rng.below(ways_);
    Frame& f = frames_[set * ways_ + pick];
    out.evicted = true;
    out.evicted_page = f.tag;
    out.evicted_states = f.sp;
    return &f;
  }

  std::size_t ways_;
  std::size_t sets_;
  // 288 KiB per cell at the full KSR-1 geometry, most of it never touched
  // by a run: ZeroedArray keeps the untouched part out of resident memory
  // and construction free of page faults. An all-zero Frame is empty.
  sim::ZeroedArray<Frame> frames_;
  std::uint64_t gen_ = 0;
};

}  // namespace ksr::cache
