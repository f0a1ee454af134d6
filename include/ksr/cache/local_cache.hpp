#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "ksr/cache/set_index.hpp"
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
    // The displaced page; the coherence layer removes this cell from the
    // copy sets of its sub-pages (through the directory's page index).
    mem::PageId evicted_page = 0;
  };

  /// One frame's sub-page states, by index within the page.
  using PageStates = std::span<const LineState, mem::kSubPagesPerPage>;

  LocalCache() : LocalCache(Config{}) {}
  explicit LocalCache(const Config& cfg)
      : ways_(cfg.ways),
        set_of_(cfg.capacity_bytes / (cfg.ways * mem::kPageBytes)),
        lock_words_((ways_ + 7) / 8),
        stride_(ways_ + lock_words_ + ways_ * kStateWords),
        words_(set_of_.sets() * stride_) {}

  [[nodiscard]] Lookup lookup(mem::SubPageId sp) const noexcept {
    const mem::PageId pg = mem::page_of_subpage(sp);
    const std::size_t set = set_of_(pg);
    const std::size_t w = find(set, pg);
    if (w == ways_) return {};
    return {true, states(set, w)[index_in_page(sp)]};
  }

  /// Ensure a frame exists for the page of `sp` (allocating/evicting if
  /// necessary) and set the sub-page's state.
  PageAlloc touch(mem::SubPageId sp, LineState st, sim::Rng& rng) {
    ++gen_;
    const mem::PageId pg = mem::page_of_subpage(sp);
    const std::size_t set = set_of_(pg);
    PageAlloc out;
    std::size_t w = find(set, pg);
    if (w == ways_) {
      out.allocated = true;
      w = victim(set, rng, out);
      tags(set)[w] = pg | kValid;
      locks(set)[w] = 0;
      std::fill_n(states(set, w), mem::kSubPagesPerPage, LineState::kInvalid);
    }
    put(set, w, index_in_page(sp), st);
    return out;
  }

  /// Change the state of a resident sub-page. No-op if the page frame is
  /// absent (e.g. already evicted).
  void set_state(mem::SubPageId sp, LineState st) noexcept {
    ++gen_;
    const mem::PageId pg = mem::page_of_subpage(sp);
    const std::size_t set = set_of_(pg);
    const std::size_t w = find(set, pg);
    if (w != ways_) put(set, w, index_in_page(sp), st);
  }

  /// Monotone counter bumped on every state mutation (touch, set_state,
  /// clear). A cached "this sub-page is writable here" hint stays valid
  /// exactly while the generation is unchanged.
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

  [[nodiscard]] LineState state(mem::SubPageId sp) const noexcept {
    return lookup(sp).state;
  }

  /// Number of Atomic sub-pages in the frame of page `pg` (0 if absent).
  [[nodiscard]] unsigned atomic_subpages(mem::PageId pg) const noexcept {
    const std::size_t set = set_of_(pg);
    const std::size_t w = find(set, pg);
    return w == ways_ ? 0u : locks(set)[w];
  }

  /// Invalidate every frame. A cleared frame keeps its tag (the checkpoint
  /// image reports it with valid=false). Frames that are already invalid
  /// hold only Invalid states, so they are left untouched and an unused
  /// part of the storage stays out of resident memory.
  void clear() noexcept {
    ++gen_;
    for (std::size_t set = 0; set < set_of_.sets(); ++set) {
      for (std::size_t w = 0; w < ways_; ++w) {
        if ((tags(set)[w] & kValid) == 0) continue;
        tags(set)[w] &= ~kValid;
        locks(set)[w] = 0;
        std::fill_n(states(set, w), mem::kSubPagesPerPage,
                    LineState::kInvalid);
      }
    }
  }

  /// Visit every non-Invalid resident sub-page as f(sub_page_id, state).
  /// Host-side audits only (invariant checker); frame order is placement
  /// order, so simulated behaviour must never depend on it.
  template <typename F>
  void for_each_subpage(F&& f) const {
    for_each_frame([&f](mem::PageId tag, bool valid, PageStates st) {
      if (!valid) return;
      for (std::size_t i = 0; i < st.size(); ++i) {
        if (st[i] != LineState::kInvalid) {
          f(static_cast<mem::SubPageId>(tag * mem::kSubPagesPerPage + i),
            st[i]);
        }
      }
    });
  }

  [[nodiscard]] std::size_t sets() const noexcept { return set_of_.sets(); }
  [[nodiscard]] unsigned ways() const noexcept { return static_cast<unsigned>(ways_); }

  /// --- Checkpoint support (docs/CHECKPOINT.md). ---
  /// Positional frame access: storage order is part of machine state
  /// (victim() prefers the first invalid way), so restore is by slot index.
  /// Slot `i` is way `i % ways()` of set `i / ways()`.
  [[nodiscard]] std::size_t frame_count() const noexcept {
    return set_of_.sets() * ways_;
  }

  /// Visit every frame slot in storage order as f(tag, valid, states).
  template <typename F>
  void for_each_frame(F&& f) const {
    for (std::size_t set = 0; set < set_of_.sets(); ++set) {
      for (std::size_t w = 0; w < ways_; ++w) {
        const std::uint64_t t = tags(set)[w];
        f(static_cast<mem::PageId>(t & ~kValid), (t & kValid) != 0,
          PageStates(states(set, w), mem::kSubPagesPerPage));
      }
    }
  }

  void restore_frame(std::size_t i, mem::PageId tag, bool valid,
                     const std::array<LineState, mem::kSubPagesPerPage>& sp) noexcept {
    const std::size_t set = i / ways_;
    const std::size_t w = i % ways_;
    tags(set)[w] = (tag & ~kValid) | (valid ? kValid : 0);
    std::copy(sp.begin(), sp.end(), states(set, w));
    locks(set)[w] = static_cast<std::uint8_t>(
        std::count(sp.begin(), sp.end(), LineState::kAtomic));
  }

  void restore_generation(std::uint64_t gen) noexcept { gen_ = gen; }

  [[nodiscard]] static std::size_t index_in_page(mem::SubPageId sp) noexcept {
    return static_cast<std::size_t>(sp % mem::kSubPagesPerPage);
  }

 private:
  // Storage: one ZeroedArray of words, set-major. Each set is `ways` tag
  // words, then `ways` lock counts (one byte each, padded to a word), then
  // `ways` runs of 128 sub-page states. A tag word is the page id with bit
  // 63 as the valid bit (page ids are Sva / 16 KiB, so the bit is free): a
  // lookup is one compare per way, and a cleared frame keeps its tag. The
  // lock count is the frame's number of Atomic sub-pages, kept by every
  // state write, so victim() reads one byte per way. An all-zero set is
  // empty.
  static constexpr std::uint64_t kValid = 1ull << 63;
  static constexpr std::size_t kStateWords =
      mem::kSubPagesPerPage * sizeof(LineState) / sizeof(std::uint64_t);

  [[nodiscard]] std::uint64_t* tags(std::size_t set) const noexcept {
    return words_.data() + set * stride_;
  }
  [[nodiscard]] std::uint8_t* locks(std::size_t set) const noexcept {
    return reinterpret_cast<std::uint8_t*>(tags(set) + ways_);
  }
  [[nodiscard]] LineState* states(std::size_t set, std::size_t w) const noexcept {
    return reinterpret_cast<LineState*>(tags(set) + ways_ + lock_words_) +
           w * mem::kSubPagesPerPage;
  }

  /// Way holding page `pg` in `set`, or ways_ if none.
  [[nodiscard]] std::size_t find(std::size_t set, mem::PageId pg) const noexcept {
    const std::uint64_t key = pg | kValid;
    const std::uint64_t* t = tags(set);
    for (std::size_t w = 0; w < ways_; ++w) {
      if (t[w] == key) return w;
    }
    return ways_;
  }

  void put(std::size_t set, std::size_t w, std::size_t i, LineState st) noexcept {
    LineState& s = states(set, w)[i];
    std::uint8_t& lk = locks(set)[w];
    lk = static_cast<std::uint8_t>(lk + (st == LineState::kAtomic) -
                                   (s == LineState::kAtomic));
    s = st;
  }

  std::size_t victim(std::size_t set, sim::Rng& rng, PageAlloc& out) noexcept {
    const std::uint64_t* t = tags(set);
    for (std::size_t w = 0; w < ways_; ++w) {
      if ((t[w] & kValid) == 0) return w;
    }
    // Random replacement, but never evict a page holding an Atomic
    // (locked) sub-page — the hardware keeps locked lines resident.
    const std::uint8_t* lk = locks(set);
    std::size_t candidates[64];
    std::size_t n = 0;
    for (std::size_t w = 0; w < ways_ && n < 64; ++w) {
      if (lk[w] == 0) candidates[n++] = w;
    }
    const std::size_t pick =
        n > 0 ? candidates[rng.below(n)] : rng.below(ways_);
    out.evicted = true;
    out.evicted_page = t[pick] & ~kValid;
    return pick;
  }

  std::size_t ways_;
  SetIndex set_of_;
  std::size_t lock_words_;  // words holding one set's lock counts
  std::size_t stride_;      // words per set
  // 274 KiB per cell at the full KSR-1 geometry, most of it never touched
  // by a run: ZeroedArray keeps the untouched part out of resident memory
  // and construction free of page faults.
  sim::ZeroedArray<std::uint64_t> words_;
  std::uint64_t gen_ = 0;
};

}  // namespace ksr::cache
