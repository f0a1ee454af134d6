// Unit tests for the discrete-event engine and fiber scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
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
    EXPECT_EQ(replaced.replace_top(k).seq, want.seq);
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

}  // namespace
}  // namespace ksr::sim
