// Unit tests for the discrete-event engine and fiber scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ksr/sim/callback.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/event_heap.hpp"
#include "ksr/sim/rng.hpp"
#include "ksr/sim/zeroed_array.hpp"

namespace ksr::sim {
namespace {

TEST(Engine, DispatchesEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(30, [&] { order.push_back(3); });
  eng.at(10, [&] { order.push_back(1); });
  eng.at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.at(100, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine eng;
  eng.at(50, [&] {
    EXPECT_THROW(eng.at(40, [] {}), std::logic_error);
  });
  eng.run();
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine eng;
  int hits = 0;
  eng.at(1, [&] {
    ++hits;
    eng.at(5, [&] {
      ++hits;
      eng.at(9, [&] { ++hits; });
    });
  });
  eng.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(eng.now(), 9u);
}

TEST(Engine, FiberRunsAndFinishes) {
  Engine eng;
  bool ran = false;
  eng.spawn([&] { ran = true; }, 7);
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.live_fibers(), 0u);
}

TEST(Engine, FiberWaitUntilAdvancesTime) {
  Engine eng;
  Time seen = 0;
  eng.spawn([&] {
    eng.wait_until(1000);
    seen = eng.now();
    eng.wait_until(2500);
    seen = eng.now();
  });
  eng.run();
  EXPECT_EQ(seen, 2500u);
}

TEST(Engine, TwoFibersInterleaveDeterministically) {
  Engine eng;
  std::vector<int> trace;
  eng.spawn([&] {
    trace.push_back(1);
    eng.wait_until(100);
    trace.push_back(3);
    eng.wait_until(300);
    trace.push_back(5);
  });
  eng.spawn([&] {
    trace.push_back(2);
    eng.wait_until(200);
    trace.push_back(4);
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Engine, BlockAndWake) {
  Engine eng;
  bool resumed = false;
  const FiberId f = eng.spawn([&] {
    eng.block();
    resumed = true;
    EXPECT_EQ(eng.now(), 500u);
  });
  eng.at(500, [&] { eng.wake(f, 500); });
  eng.run();
  EXPECT_TRUE(resumed);
}

TEST(Engine, WakingFinishedFiberThrows) {
  Engine eng;
  const FiberId f = eng.spawn([] {});
  eng.at(100, [&] { eng.wake(f, 200); });  // fiber finished long before t=100
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  eng.spawn([&] { eng.block(); });  // nobody ever wakes it
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, FiberExceptionPropagates) {
  Engine eng;
  eng.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ManyFibersAllComplete) {
  Engine eng;
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    eng.spawn([&eng, &done, i] {
      for (int k = 0; k < 10; ++k) {
        eng.wait_until(eng.now() + static_cast<Time>(i + 1));
      }
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, 64);
}

TEST(Engine, CurrentFiberIdVisible) {
  Engine eng;
  eng.spawn([&] {
    EXPECT_TRUE(eng.in_fiber());
    EXPECT_EQ(eng.current_fiber(), 0u);
  });
  eng.run();
  EXPECT_FALSE(eng.in_fiber());
}

TEST(Engine, NextEventTimeSentinelWhenIdle) {
  Engine eng;
  EXPECT_EQ(eng.next_event_time(), std::numeric_limits<Time>::max());
  eng.at(42, [] {});
  EXPECT_EQ(eng.next_event_time(), 42u);
  eng.run();
}

// ---- Fiber handoff: the self/handoff paths dispatch like the scheduler ----

// How a handoff program is driven. kRun lets parking fibers hand off freely;
// kSliced ends a run_until() slice every nanosecond and kObserved runs an
// observer every nanosecond, so both force the scheduler path between
// timestamps (only same-time ties may still hand off).
enum class Drive { kRun, kSliced, kObserved };

struct HandoffRun {
  std::vector<std::array<std::uint64_t, 3>> log;  // (now, fiber, step)
  std::uint64_t dispatched = 0;
  std::size_t live_after = 0;
  bool in_order = true;  // no step ran past a slice end or a due observer
};

// N fibers mixing wait_until (with tied wake times), block/wake through
// InlineFn callbacks, a fiber whose wake is scheduled before it blocks, a
// self-rescheduling callback, and late spawns at tied timestamps.
HandoffRun run_handoff_program(Drive drive, std::uint64_t seed) {
  constexpr Time kIdle = std::numeric_limits<Time>::max();
  Engine eng;
  eng.set_tie_break_seed(seed);
  HandoffRun out;
  auto note = [&](std::uint64_t fiber, std::uint64_t step) {
    out.log.push_back({eng.now(), fiber, step});
  };
  std::vector<FiberId> ids(5);
  for (std::uint64_t f = 0; f < 4; ++f) {
    ids[f] = eng.spawn(
        [&, f] {
          for (std::uint64_t k = 0; k < 24; ++k) {
            note(f, k);
            if ((k + f) % 3 == 0) {
              eng.at(eng.now() + 2,
                     [&eng, &ids, f] { eng.wake(ids[f], eng.now()); });
              eng.block();
            } else {
              eng.wait_until(eng.now() + (k * 7 + f) % 3);  // 0..2 ns: ties
            }
            if (f == 0 && k == 9) {  // a late spawn from inside a fiber
              eng.spawn([&] {
                for (std::uint64_t j = 0; j < 6; ++j) {
                  note(10, j);
                  eng.wait_until(eng.now() + j % 2);
                }
              }, eng.now());
            }
          }
        },
        f % 2);
  }
  ids[4] = eng.spawn([&] {  // wakes itself before it blocks
    for (std::uint64_t k = 0; k < 12; ++k) {
      note(4, k);
      eng.wake(ids[4], eng.now() + k % 2);
      eng.block();
    }
  });
  std::function<void()> tick = [&] {  // a callback lane event at tied times
    note(20, eng.now());
    if (eng.now() < 40) eng.in(3, [&] { tick(); });
  };
  eng.at(1, [&] { tick(); });
  eng.at(7, [&] {  // a late spawn from a callback
    eng.spawn([&] {
      for (std::uint64_t j = 0; j < 8; ++j) {
        note(30, j);
        eng.wait_until(eng.now() + 1);
      }
    }, eng.now());
  });

  std::function<void()> observe = [&] {
    if (!out.log.empty() && out.log.back()[0] >= eng.now()) {
      out.in_order = false;
    }
    eng.observe_in(1, [&] { observe(); });
  };
  switch (drive) {
    case Drive::kRun:
      eng.run();
      break;
    case Drive::kSliced:
      for (Time h = 1; eng.next_event_time() != kIdle; ++h) {
        eng.run_until(h);
        if (!out.log.empty() && out.log.back()[0] >= h) out.in_order = false;
      }
      eng.finish_run();
      break;
    case Drive::kObserved:
      eng.observe_at(0, [&] { observe(); });
      eng.run();
      break;
  }
  out.dispatched = eng.events_dispatched();
  out.live_after = eng.live_fibers();
  return out;
}

TEST(EngineHandoff, SameLogUnderEveryDrive) {
  std::vector<std::vector<std::array<std::uint64_t, 3>>> logs;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{0x5eed}}) {
    SCOPED_TRACE(seed);
    const HandoffRun run = run_handoff_program(Drive::kRun, seed);
    logs.push_back(run.log);
    const HandoffRun sliced = run_handoff_program(Drive::kSliced, seed);
    const HandoffRun observed = run_handoff_program(Drive::kObserved, seed);
    EXPECT_GT(run.log.size(), 100u);
    EXPECT_EQ(run.log, sliced.log);
    EXPECT_EQ(run.log, observed.log);
    EXPECT_EQ(run.dispatched, sliced.dispatched);
    EXPECT_EQ(run.dispatched, observed.dispatched);
    // Stacks of fibers entered by handoff are released too.
    EXPECT_EQ(run.live_after, 0u);
    EXPECT_EQ(sliced.live_after, 0u);
    EXPECT_EQ(observed.live_after, 0u);
    EXPECT_TRUE(sliced.in_order);
    EXPECT_TRUE(observed.in_order);
  }
  EXPECT_NE(logs[0], logs[1]);  // the seed still permutes fiber-event ties
}

TEST(EngineHandoff, ExceptionInFiberEnteredByHandoffPropagates) {
  Engine eng;
  // The first fiber parks with the second's spawn event on top of the
  // queue, so the second is entered by handoff, not from the scheduler.
  eng.spawn([&] { eng.wait_until(10); });
  eng.spawn([&] {
    eng.wait_until(5);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(eng.now(), 5u);
}

// ---- ZeroedArray: both allocation paths -----------------------------------

TEST(ZeroedArray, StartsZeroedAndMovesOwnership) {
  // 1 KiB comes from calloc, 256 KiB (a default fiber stack) is a mapping.
  for (const std::size_t n : {std::size_t{1024}, Engine::kDefaultStackBytes}) {
    ksr::sim::ZeroedArray<std::uint32_t> a(n / sizeof(std::uint32_t));
    ASSERT_EQ(a.size(), n / sizeof(std::uint32_t));
    EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                            [](std::uint32_t v) { return v == 0; }));
    a[a.size() - 1] = 7;
    ksr::sim::ZeroedArray<std::uint32_t> b(std::move(a));
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b[b.size() - 1], 7u);
    b = {};
    EXPECT_EQ(b.data(), nullptr);
  }
}

// ---- InlineFn: the three storage strategies -------------------------------

TEST(InlineFn, TrivialCaptureInvokesAndMoves) {
  int sink = 0;
  int* p = &sink;
  InlineFn f([p] { ++*p; });  // trivially copyable capture: inline, no ops
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(sink, 1);
  InlineFn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  g();
  EXPECT_EQ(sink, 2);
}

TEST(InlineFn, MoveOnlyCaptureStaysInline) {
  auto owned = std::make_unique<int>(7);
  int got = 0;
  InlineFn f([o = std::move(owned), &got] { got = *o; });
  InlineFn g(std::move(f));
  InlineFn h;
  h = std::move(g);
  h();
  EXPECT_EQ(got, 7);
  h.reset();  // releases the unique_ptr; must not leak or double-free
  EXPECT_FALSE(static_cast<bool>(h));
}

TEST(InlineFn, OversizedCaptureIsBoxed) {
  std::array<std::uint64_t, 32> big{};  // 256 B > kInlineBytes
  big[0] = 3;
  big[31] = 4;
  std::uint64_t got = 0;
  InlineFn f([big, &got] { got = big[0] + big[31]; });
  InlineFn g(std::move(f));
  g();
  EXPECT_EQ(got, 7u);
}

TEST(InlineFn, AssignmentReplacesExistingCallable) {
  int a = 0;
  int b = 0;
  InlineFn f([&a] { ++a; });
  f = InlineFn([&b] { ++b; });
  f();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
}

// ---- EventQueue / DaryHeap: dispatch order vs a sorted reference ----------

struct Key {
  Time t;
  std::uint64_t seq;
};
struct KeyEarlier {
  bool operator()(const Key& a, const Key& b) const noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }
};

// push(k) then pop_top() on an EventQueue, as Engine::handoff does it.
Key push_pop(EventQueue<Key, KeyEarlier, 4>& q, Key k) {
  if (q.empty() || KeyEarlier{}(k, q.top())) return k;
  return q.exchange_top(k);
}

// Random interleaving of monotone pushes (the engine's common case),
// out-of-order pushes, and interspersed pops. Returns the pop order.
template <typename Queue>
std::vector<std::uint64_t> exercise_queue(Queue& q) {
  Rng rng(1234);
  std::vector<std::uint64_t> popped;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int round = 0; round < 2000; ++round) {
    const Time t = rng.below(10) < 7 ? now + rng.below(50)   // monotone-ish
                                     : now / 2 + rng.below(100);  // reordered
    q.push(Key{t, seq++});
    if (rng.below(10) < 4) popped.push_back(q.pop_top().seq);
    if (!q.empty()) now = q.top().t;
  }
  while (!q.empty()) popped.push_back(q.pop_top().seq);
  return popped;
}

TEST(EventQueue, MatchesSortedReferenceOnRandomWorkload) {
  // Drive the two-lane queue and the plain heap with the same pushes and
  // pops; they must produce the same dispatch order.
  EventQueue<Key, KeyEarlier, 4> lanes;
  DaryHeap<Key, KeyEarlier, 4> heap;
  const std::vector<std::uint64_t> a = exercise_queue(lanes);
  const std::vector<std::uint64_t> b = exercise_queue(heap);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(EventQueue, FullDrainIsTotallySorted) {
  EventQueue<Key, KeyEarlier, 4> q;
  Rng rng(99);
  std::vector<Key> ref;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const Key k{rng.below(500), i};
    q.push(k);
    ref.push_back(k);
  }
  std::sort(ref.begin(), ref.end(),
            [](const Key& x, const Key& y) { return KeyEarlier{}(x, y); });
  for (const Key& want : ref) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.top().seq, want.seq);
    const Key got = q.pop_top();
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReplaceTopEqualsPushThenPop) {
  EventQueue<Key, KeyEarlier, 4> replaced;
  EventQueue<Key, KeyEarlier, 4> reference;
  DaryHeap<Key, KeyEarlier, 4> heap;
  Rng rng(7);
  std::uint64_t seq = 0;
  for (int round = 0; round < 5000; ++round) {
    const Key k{rng.below(300), seq++};
    if (rng.below(10) < 6 || reference.empty()) {
      replaced.push(k);
      reference.push(k);
      heap.push(k);
      continue;
    }
    reference.push(k);
    const Key want = reference.pop_top();
    EXPECT_EQ(push_pop(replaced, k).seq, want.seq);
    EXPECT_EQ(heap.replace_top(k).seq, want.seq);
  }
  while (!reference.empty()) {
    const std::uint64_t want = reference.pop_top().seq;
    EXPECT_EQ(replaced.pop_top().seq, want);
    EXPECT_EQ(heap.pop_top().seq, want);
  }
  EXPECT_TRUE(replaced.empty());
  EXPECT_TRUE(heap.empty());
}

TEST(EventQueue, MonotonePushesAndSizeBookkeeping) {
  EventQueue<Key, KeyEarlier, 4> q;
  for (std::uint64_t i = 0; i < 10000; ++i) q.push(Key{i, i});
  EXPECT_EQ(q.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(q.pop_top().seq, i);  // exercises the run-lane compaction
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// ---- EventQueue lane paths, each checked against a plain DaryHeap --------
//
// The scenarios below place events at chosen depths of the sorted lane (key
// times are multiples of 10, so t = 10k + 5 lands between two of them) to
// drive each path: a linear step near either end, a binary-searched middle
// insert shifting the shorter side, and the overflow to the heap lane.

using Lanes = EventQueue<Key, KeyEarlier, 4>;

class QueueMirror {
 public:
  void push(Time t) {
    const Key k{t, seq_++};
    q_.push(k);
    ref_.push(k);
    EXPECT_EQ(q_.size(), ref_.size());
  }
  void pop(int n = 1) {
    for (int i = 0; i < n; ++i) {
      const Key got = q_.pop_top();
      const Key want = ref_.pop_top();
      EXPECT_EQ(got.t, want.t);
      EXPECT_EQ(got.seq, want.seq);
    }
  }
  void replace_top(Time t) {
    const Key k{t, seq_++};
    const Key got = push_pop(q_, k);
    const Key want = ref_.replace_top(k);
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.seq, want.seq);
  }
  // Push t = 10, 20, ..., 10 n: an in-order lane.
  void fill(int n) {
    for (int i = 1; i <= n; ++i) push(static_cast<Time>(10 * i));
  }
  void drain() {
    while (!ref_.empty()) {
      ASSERT_FALSE(q_.empty());
      EXPECT_EQ(q_.top().seq, ref_.top().seq);
      pop();
    }
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.size(), 0u);
  }

 private:
  Lanes q_;
  DaryHeap<Key, KeyEarlier, 4> ref_;
  std::uint64_t seq_ = 0;
};

TEST(EventQueueLanes, FrontInsertsMoveIntoTheDeadPrefix) {
  QueueMirror m;
  m.fill(100);
  m.pop(20);       // a dead prefix of 20 slots below the head (t = 210)
  m.push(205);     // before the head: takes the slot below it
  m.push(215);     // one slot in
  m.push(245);     // four slots in
  m.push(207);     // the new head again
  m.replace_top(209);
  m.drain();
}

TEST(EventQueueLanes, MiddleInsertsShiftTheShorterSide) {
  QueueMirror m;
  m.fill(200);
  m.pop(60);     // live t = 610..2000, 140 events, 60 dead slots
  m.push(815);   // 20 after the head, 120 before the back: left side moves
  m.push(1805);  // 120 after the head, 20 before the back: right side moves
  m.push(625);   // a few after the head: the linear step
  m.push(1995);  // just before the back: the linear step
  m.replace_top(835);
  m.replace_top(1815);
  m.drain();
}

TEST(EventQueueLanes, OverflowToTheHeapAndBack) {
  const int half = static_cast<int>(Lanes::kReach) + 40;
  const Time mid = 10 * static_cast<Time>(half);
  QueueMirror m;
  m.fill(2 * half);
  // Nine events between two lane slots with more than kReach events on
  // both sides: they go to the heap lane.
  for (Time dt = 1; dt < 10; ++dt) m.push(mid + dt);
  m.pop(half);  // through t = mid: the heap lane holds the next nine tops
  for (Time t = 3010; t <= 5000; t += 10) m.push(t);  // a longer lane
  m.replace_top(2500);  // the lane's middle: takes the heap top's place
  m.replace_top(6000);  // appends to the lane
  m.replace_top(4995);  // near the lane's back
  m.pop(3);
  m.push(mid - 5);  // in front of the whole lane, into its dead prefix
  m.drain();        // the heap's events come back out in order
}

TEST(EventQueueLanes, InsertsAfterTheLaneIsCompacted) {
  QueueMirror m;
  m.fill(10000);
  m.pop(5000);  // the dead prefix is reclaimed: the head is slot 0 again
  m.push(50'015);  // one slot in, no dead slot below: right side or heap
  m.push(99'985);  // near the back
  m.pop();
  m.push(50'025);  // one dead slot again
  for (int i = 0; i < 6000; ++i) {  // past 4096 pops once more
    m.pop();
    m.push(100'000 + static_cast<Time>(7 * i));
  }
  m.drain();
}

TEST(EventQueueLanes, HashedTieBreaksMatchTheHeap) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0x5eed}}) {
    SCOPED_TRACE(seed);
    Lanes q;
    DaryHeap<Key, KeyEarlier, 4> ref;
    Rng rng(seed);
    std::uint64_t c = 0;
    Time now = 0;
    // The live count wanders up to a few hundred, so every lane path and
    // the overflow are taken; set_tie_break_seed() keys ties this way.
    for (int round = 0; round < 40000; ++round) {
      const Time t =
          now + (rng.below(16) == 0 ? rng.below(400) : rng.below(4));
      const Key k{t, mix64(seed + c++)};
      const std::uint64_t op = rng.below(100);
      const bool grow = (round / 4000) % 2 == 0;
      if (ref.empty() || op < (grow ? 55u : 35u)) {
        q.push(k);
        ref.push(k);
      } else if (op < 70) {
        const Key got = q.pop_top();
        const Key want = ref.pop_top();
        ASSERT_EQ(got.seq, want.seq);
        now = got.t;
      } else {
        const Key got = push_pop(q, k);
        const Key want = ref.replace_top(k);
        ASSERT_EQ(got.seq, want.seq);
        now = got.t;
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) ASSERT_EQ(q.pop_top().seq, ref.pop_top().seq);
    EXPECT_TRUE(q.empty());
  }
}

// N fibers re-park by seeded random waits (mostly a few ns, now and then
// far, sometimes 0 for a same-time tie); the engine must resume them in the
// order of a reference model that sorts resume events by (time, seq) with
// the engine's sequence numbering and tie-break hash.
TEST(EngineDispatch, SeededRandomWaitsMatchSortedReference) {
  constexpr std::uint32_t kFibers = 48;
  constexpr int kSteps = 300;
  auto wait_of = [](Rng& rng) -> Duration {
    const std::uint64_t r = rng.below(32);
    return r == 0 ? 200 + rng.below(2000) : r < 4 ? 0 : 1 + rng.below(6);
  };
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{0x5eed}}) {
    SCOPED_TRACE(seed);
    std::vector<std::pair<Time, std::uint32_t>> got;
    Engine eng;
    eng.set_tie_break_seed(seed);
    for (std::uint32_t f = 0; f < kFibers; ++f) {
      eng.spawn([&eng, &got, &wait_of, f] {
        Rng rng(f + 1);
        for (int i = 0; i < kSteps; ++i) {
          got.emplace_back(eng.now(), f);
          eng.wait_until(eng.now() + wait_of(rng));
        }
      });
    }
    eng.run();

    // The model: spawn events take sequence numbers 0..N-1, each wait the
    // next one; a fiber's last resume only returns from its body.
    struct Ev {
      Time t;
      std::uint64_t seq;
      std::uint32_t fiber;
    };
    auto later = [](const Ev& a, const Ev& b) {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    };
    std::uint64_t c = 0;
    auto key = [&] {
      const std::uint64_t n = c++;
      return seed == 0 ? n : mix64(seed + n);
    };
    std::vector<Ev> heap;
    std::vector<Rng> rngs;
    std::vector<int> steps(kFibers, 0);
    for (std::uint32_t f = 0; f < kFibers; ++f) {
      rngs.emplace_back(f + 1);
      heap.push_back(Ev{0, key(), f});
    }
    std::make_heap(heap.begin(), heap.end(), later);
    std::vector<std::pair<Time, std::uint32_t>> want;
    std::uint64_t dispatched = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Ev ev = heap.back();
      heap.pop_back();
      ++dispatched;
      if (steps[ev.fiber]++ == kSteps) continue;
      want.emplace_back(ev.t, ev.fiber);
      heap.push_back(Ev{ev.t + wait_of(rngs[ev.fiber]), key(), ev.fiber});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(eng.events_dispatched(), dispatched);
    EXPECT_EQ(dispatched, std::uint64_t{kFibers} * (kSteps + 1));
  }
}

}  // namespace
}  // namespace ksr::sim
