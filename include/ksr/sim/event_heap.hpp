#pragma once

#include <cstddef>
#include <utility>
#include <vector>

// d-ary min-heap: the overflow lane of the engine's event queue (EventQueue
// below).
//
// Replaces std::priority_queue for two reasons. First, priority_queue::top()
// returns a const reference, forcing a const_cast to move the event out; the
// heap here has pop_top() returning the element by value. Second, a 4-ary
// heap is measurably faster than a binary heap for this workload: the tree
// is half as deep, sift-down touches one contiguous cache line of children
// per level, and events (time + seq + inline callback) are large enough that
// fewer moves dominate the extra comparisons.
//
// `Earlier(a, b)` returns true when `a` must be dispatched before `b`; with
// the engine's (time, seq) ordering the heap is only stable in the sense the
// engine needs — strict total order, no equal keys.
namespace ksr::sim {

template <typename T, typename Earlier, unsigned Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// The element that pop_top() would return. Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept { return heap_.front(); }

  void push(T v) {
    heap_.push_back(std::move(v));
    sift_up(heap_.size() - 1);
  }

  /// Remove and return the minimum element (by value — no const_cast games).
  T pop_top() {
    T out = std::move(heap_.front());
    const std::size_t n = heap_.size() - 1;
    if (n == 0) {
      heap_.pop_back();
      return out;
    }
    T tail = std::move(heap_[n]);
    heap_.pop_back();
    sift_down(0, std::move(tail));  // the former tail, from the root hole
    return out;
  }

  /// push(v) followed by pop_top(), in one sift: returns `v` itself when it
  /// sorts first, otherwise the old top, with `v` sifted down into its place.
  T replace_top(T v) {
    if (heap_.empty() || earlier_(v, heap_.front())) return v;
    T out = std::move(heap_.front());
    sift_down(0, std::move(v));
    return out;
  }

  void clear() noexcept { heap_.clear(); }

  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  // Fill the hole at `hole` with `v`, moving earlier children up.
  void sift_down(std::size_t hole, T v) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = hole * Arity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier_(heap_[c], heap_[best])) best = c;
      }
      if (!earlier_(heap_[best], v)) break;
      heap_[hole] = std::move(heap_[best]);
      hole = best;
    }
    heap_[hole] = std::move(v);
  }

  void sift_up(std::size_t i) {
    if (i == 0) return;
    T v = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!earlier_(v, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(v);
  }

  std::vector<T> heap_;
  [[no_unique_address]] Earlier earlier_;
};

// Priority queue tuned for discrete-event scheduling: one sorted lane, with
// the d-ary heap above as a bounded overflow lane.
//
// Most events a simulator schedules arrive in nondecreasing (time, seq)
// order — each dispatched event schedules things at or after `now`, and the
// tie-breaking sequence number always grows. Those append to the sorted
// lane in O(1) and pop from its front in O(1). The rest (a spinning fiber
// re-parking a few ns ahead while a slower one waits far in the future) are
// placed inside the lane, and whichever side of their position is shorter
// moves by one slot: the left side down into the dead prefix that pops
// leave below the lane's head, the right side up. Within kNear of either
// end the position is found while shifting; further in, by binary search.
// Only when the shorter side holds more than kReach elements does the event
// go to the heap lane. pop_top() merges the two lanes by `Earlier`, so the
// dispatch order is exactly the total (time, seq) order a single heap would
// produce — bit-identical runs.
template <typename T, typename Earlier, unsigned Arity = 4>
class EventQueue {
 public:
  /// Most elements one in-lane insert moves; an event whose shorter side is
  /// longer overflows to the heap lane.
  static constexpr std::size_t kReach = 64;

  [[nodiscard]] bool empty() const noexcept {
    return run_head_ == run_.size() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return (run_.size() - run_head_) + heap_.size();
  }

  void push(T v) {
    if (run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
      run_.push_back(std::move(v));
    } else if (!earlier_(v, run_.back())) {
      run_.push_back(std::move(v));
    } else if (!insert_run(v)) {
      heap_.push(std::move(v));
    }
  }

  /// The element pop_top() would return. Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept {
    return top_in_run() ? run_[run_head_] : heap_.top();
  }

  /// Remove and return the earliest element across both lanes.
  T pop_top() { return top_in_run() ? pop_run() : heap_.pop_top(); }

  /// push(v) followed by pop_top(), for a caller that has already compared
  /// `v` with the top. Precondition: !empty() and top() sorts before `v`.
  T exchange_top(T v) {
    if (top_in_run()) {
      T out = pop_run();  // frees the slot a left shift moves into
      push(std::move(v));
      return out;
    }
    // The top is in the heap lane: `v` joins the sorted lane when it fits
    // there, else takes the top's place in one sift-down.
    if (run_head_ == run_.size() || !earlier_(v, run_.back())) {
      push(std::move(v));
    } else if (!insert_run(v)) {
      return heap_.replace_top(std::move(v));
    }
    return heap_.pop_top();
  }

  void clear() noexcept {
    heap_.clear();
    run_.clear();
    run_head_ = 0;
  }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    run_.reserve(n);
  }

 private:
  // Positions within kNear of either end of the lane are found by the
  // shifting loop itself: cheaper than a search for the usual few slots.
  static constexpr std::size_t kNear = 8;

  [[nodiscard]] bool top_in_run() const noexcept {
    return run_head_ != run_.size() &&
           (heap_.empty() || !earlier_(heap_.top(), run_[run_head_]));
  }

  T pop_run() {
    T out = std::move(run_[run_head_++]);
    // Reclaim the dead prefix once it dominates the lane (trivial memmove).
    if (run_head_ >= 4096 && run_head_ * 2 >= run_.size()) {
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    return out;
  }

  // Place `v` inside the live sorted lane by moving the shorter side of its
  // position one slot; false (nothing moved) when that side is longer than
  // kReach. Precondition: the lane is live and `v` sorts before its back.
  bool insert_run(const T& v) {
    const std::size_t n = run_.size();
    if (n - run_head_ <= kNear || !earlier_(v, run_[n - 1 - kNear])) {
      std::size_t i = n - 1;
      run_.push_back(run_[i]);
      for (; i > run_head_ && earlier_(v, run_[i - 1]); --i) {
        run_[i] = run_[i - 1];
      }
      run_[i] = v;
      return true;
    }
    if (run_head_ != 0 && earlier_(v, run_[run_head_ + kNear])) {
      std::size_t i = --run_head_;
      for (; !earlier_(v, run_[i + 1]); ++i) run_[i] = run_[i + 1];
      run_[i] = v;
      return true;
    }
    // Binary search for the first element `v` sorts before, halving by
    // conditional moves: the probes' outcomes are unpredictable.
    std::size_t pos = run_head_;
    for (std::size_t m = n - kNear - run_head_; m > 1;) {
      const std::size_t half = m / 2;
      pos += earlier_(v, run_[pos + half]) ? 0 : half;
      m -= half;
    }
    pos += static_cast<std::size_t>(!earlier_(v, run_[pos]));
    const std::size_t left = pos - run_head_;
    const std::size_t right = n - pos;
    const auto at = run_.begin() + static_cast<std::ptrdiff_t>(pos);
    if (left <= right && left <= kReach && run_head_ != 0) {
      const auto first = run_.begin() + static_cast<std::ptrdiff_t>(run_head_);
      std::move(first, at, first - 1);
      *(at - 1) = v;
      --run_head_;
      return true;
    }
    if (right > kReach) return false;
    run_.insert(at, v);
    return true;
  }

  DaryHeap<T, Earlier, Arity> heap_;
  std::vector<T> run_;        // sorted lane, popped in front
  std::size_t run_head_ = 0;  // first live element of run_
  [[no_unique_address]] Earlier earlier_;
};

}  // namespace ksr::sim
