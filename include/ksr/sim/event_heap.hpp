#pragma once

#include <cstddef>
#include <utility>
#include <vector>

// d-ary min-heap for the engine's event queue.
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

// Two-lane priority queue tuned for discrete-event scheduling.
//
// Most events a simulator schedules arrive in nondecreasing (time, seq)
// order — each dispatched event schedules things at or after `now`, and the
// tie-breaking sequence number always grows. A heap pays full-depth
// sift-downs for exactly that friendly pattern (the tail it re-sifts from
// the root is usually the maximum). So pushes that are >= the newest element
// of the sorted lane are appended there in O(1) and popped from its front in
// O(1); only out-of-order pushes fall back to the d-ary heap. pop_top()
// merges the two lanes by `Earlier`, so the dispatch order is exactly the
// total (time, seq) order a single heap would produce — bit-identical runs.
template <typename T, typename Earlier, unsigned Arity = 4>
class EventQueue {
 public:
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
    } else {
      heap_.push(std::move(v));
    }
  }

  /// The element pop_top() would return. Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept {
    if (run_head_ == run_.size()) return heap_.top();
    if (heap_.empty()) return run_[run_head_];
    const T& r = run_[run_head_];
    return earlier_(heap_.top(), r) ? heap_.top() : r;
  }

  /// Remove and return the earliest element across both lanes.
  T pop_top() {
    if (run_head_ == run_.size()) return heap_.pop_top();
    if (!heap_.empty() && earlier_(heap_.top(), run_[run_head_])) {
      return heap_.pop_top();
    }
    return pop_run();
  }

  /// push(v) followed by pop_top(): returns `v` itself when it sorts first.
  /// When the top sits in the heap lane and `v` cannot append to the sorted
  /// lane, `v` takes the top's place in a single sift-down.
  T replace_top(T v) {
    if (empty() || earlier_(v, top())) return v;
    const bool run_live = run_head_ != run_.size();
    if (run_live &&
        (heap_.empty() || !earlier_(heap_.top(), run_[run_head_]))) {
      T out = pop_run();
      push(std::move(v));
      return out;
    }
    if (run_live && !earlier_(v, run_.back())) {
      run_.push_back(std::move(v));
      return heap_.pop_top();
    }
    return heap_.replace_top(std::move(v));
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

  DaryHeap<T, Earlier, Arity> heap_;
  std::vector<T> run_;        // sorted lane: monotone appends, popped in front
  std::size_t run_head_ = 0;  // first live element of run_
  [[no_unique_address]] Earlier earlier_;
};

}  // namespace ksr::sim
