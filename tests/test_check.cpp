// Tests for the ALLCACHE invariant checker (ksr/check, docs/CHECKING.md):
// clean runs audit violation-free, every invariant class detects a
// deliberately corrupted machine state (the checker can actually fail), the
// checker never perturbs the simulated schedule, and the schedule fuzzer's
// seeded tie-breaking is exactly reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/machine/coherent_machine.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"

namespace ksr::machine {
namespace {

// Minimal coherent machine with an instantaneous-ish interconnect, plus
// public corruption handles so tests can fabricate the exact illegal states
// a protocol bug would leave behind (the production machines keep their
// cells_ and dir_ protected, and rightly so).
class MutableMachine : public CoherentMachine {
 public:
  explicit MutableMachine(const MachineConfig& cfg) : CoherentMachine(cfg) {}

  /// Overwrite one cell's local-cache line state (frame must exist) —
  /// e.g. resurrect a copy the protocol invalidated, as if the invalidate
  /// packet had been skipped.
  void corrupt_line_state(unsigned cell, mem::SubPageId sp,
                          cache::LineState st) {
    cells_[cell].local.set_state(sp, st);
  }
  /// Drop a cell from the directory's copy set without touching the cell.
  void corrupt_drop_holder(unsigned cell, mem::SubPageId sp) {
    dir_find(sp)->holders.clear(cell);
  }
  /// Flip the directory's atomic bit without touching any line state.
  void corrupt_set_atomic(mem::SubPageId sp, bool atomic) {
    dir_find(sp)->atomic = atomic;
  }

 protected:
  void transport(unsigned cell, mem::SubPageId sp, unsigned target_leaf,
                 std::function<void(sim::Duration)> done) override {
    (void)cell;
    (void)sp;
    (void)target_leaf;
    engine_.at(engine_.now() + 200, [done = std::move(done)] { done(0); });
  }
  [[nodiscard]] sim::Duration transaction_overhead_ns(
      Acquire kind, bool crossed_leaf) const override {
    (void)kind;
    (void)crossed_leaf;
    return 100;
  }
};

// Drive the machine into a known end state: arr's first sub-page is owned
// Exclusive by cell 0 with cell 1 holding an Invalid placeholder (cell 1 read
// the line, then cell 0's second write invalidated it).
mem::SubPageId setup_owned_with_placeholder(MutableMachine& m,
                                            mem::SharedArray<double>& arr) {
  auto flag = m.alloc<int>("flag", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 1.0);
      cpu.write(flag, 0, 1);
    } else {
      while (cpu.read(flag, 0) != 1) cpu.work(300);
      (void)cpu.read(arr, 0);
    }
  });
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) cpu.write(arr, 0, 2.0);
  });
  return mem::subpage_of(arr.addr(0));
}

// Drive arr's first sub-page read-shared by both cells (snarf/refresh state
// the I5 freeze audit protects).
mem::SubPageId setup_read_shared(MutableMachine& m,
                                 mem::SharedArray<double>& arr) {
  auto flag = m.alloc<int>("flag2", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 3.0);
      cpu.write(flag, 0, 1);
    } else {
      while (cpu.read(flag, 0) != 1) cpu.work(300);
      (void)cpu.read(arr, 0);
    }
  });
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 1) (void)cpu.read(arr, 0);
    else (void)cpu.read(arr, 0);
  });
  return mem::subpage_of(arr.addr(0));
}

TEST(Checker, CleanLockWorkloadAuditsViolationFree) {
  KsrMachine m(MachineConfig::ksr1(4));
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);  // also registers the rings for I6
  sync::HardwareLock lock(m, "lk");
  auto counter = m.alloc<std::uint32_t>("ctr", 1);
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 10; ++i) {
      lock.acquire(cpu);
      cpu.write(counter, 0, cpu.read(counter, 0) + 1);
      lock.release(cpu);
    }
  });
  EXPECT_NO_THROW(checker.audit_all());
  EXPECT_EQ(counter.value(0), 40u);
  EXPECT_EQ(checker.stats().full_audits, 1u);
  if (check::kHooksCompiled) {
    EXPECT_GT(checker.stats().transitions, 0u);
  } else {
    EXPECT_EQ(checker.stats().transitions, 0u);
  }
  m.attach_checker(nullptr);
}

TEST(Checker, SkippedInvalidateIsCaught) {
  MutableMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<double>("arr", 16);
  const mem::SubPageId sp = setup_owned_with_placeholder(m, arr);
  ASSERT_EQ(m.cell_line_state(0, sp), cache::LineState::kExclusive);
  ASSERT_EQ(m.cell_line_state(1, sp), cache::LineState::kInvalid);

  check::InvariantChecker checker(m);
  EXPECT_NO_THROW(checker.audit_all());

  // As if cell 1 never processed the invalidate: its stale read copy is
  // back while cell 0 believes it holds the only copy.
  m.corrupt_line_state(1, sp, cache::LineState::kShared);
  try {
    checker.audit_all();
    FAIL() << "corrupted state passed the audit";
  } catch (const check::ViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("I1.ownership"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("arr"), std::string::npos)
        << "diagnostic names the heap region: " << e.what();
  }
}

TEST(Checker, DoubleOwnerIsCaught) {
  MutableMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<double>("arr", 16);
  const mem::SubPageId sp = setup_read_shared(m, arr);
  ASSERT_EQ(m.cell_line_state(1, sp), cache::LineState::kShared);

  check::InvariantChecker checker(m);
  m.corrupt_line_state(0, sp, cache::LineState::kExclusive);
  m.corrupt_line_state(1, sp, cache::LineState::kExclusive);
  try {
    checker.audit_all();
    FAIL() << "two writable copies passed the audit";
  } catch (const check::ViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("I1.ownership"), std::string::npos)
        << e.what();
  }
}

TEST(Checker, DirectoryMissingHolderIsCaught) {
  MutableMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<double>("arr", 16);
  const mem::SubPageId sp = setup_read_shared(m, arr);

  check::InvariantChecker checker(m);
  m.corrupt_drop_holder(1, sp);
  try {
    checker.audit_all();
    FAIL() << "directory/copy-set mismatch passed the audit";
  } catch (const check::ViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("I3.copy-set"), std::string::npos)
        << e.what();
  }
}

TEST(Checker, AtomicBitMismatchIsCaught) {
  MutableMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<double>("arr", 16);
  const mem::SubPageId sp = setup_owned_with_placeholder(m, arr);

  check::InvariantChecker checker(m);
  m.corrupt_set_atomic(sp, true);  // dir says locked, no line is Atomic
  try {
    checker.audit_all();
    FAIL() << "atomic-bit mismatch passed the audit";
  } catch (const check::ViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("I2.atomicity"), std::string::npos)
        << e.what();
  }
}

TEST(Checker, StaleReadSharedValueIsCaught) {
  MutableMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<double>("arr", 16);
  const mem::SubPageId sp = setup_read_shared(m, arr);

  check::InvariantChecker checker(m);
  checker.audit_all();  // records the freeze hash of the read-shared bytes
  // Mutate the heap bytes behind the protocol's back — the state a missed
  // invalidate-before-write or a corrupted poststore refresh would leave.
  arr.set_value(0, 99.0);
  try {
    checker.audit_all();
    FAIL() << "stale read-shared bytes passed the audit";
  } catch (const check::ViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("I5.values"), std::string::npos)
        << e.what();
  }
  (void)sp;
}

TEST(Checker, ResetForgetsFreezeRecords) {
  MutableMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<double>("arr", 16);
  (void)setup_read_shared(m, arr);

  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  checker.audit_all();        // freeze hash recorded
  m.reset_memory_system();    // drops caches+dir and resets the checker
  arr.set_value(0, 123.0);    // legal: nothing is cached any more
  EXPECT_NO_THROW(checker.audit_all());
  m.attach_checker(nullptr);
}

TEST(Checker, AttachedCheckerDoesNotPerturbTheSchedule) {
  const auto run_once = [](bool with_checker) {
    KsrMachine m(MachineConfig::ksr1(8));
    check::InvariantChecker checker(m);
    if (with_checker) m.attach_checker(&checker);
    auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
    m.run([&](Cpu& cpu) {
      for (int e = 0; e < 6; ++e) {
        cpu.work(cpu.rng().below(400));
        barrier->arrive(cpu);
      }
    });
    if (with_checker) m.attach_checker(nullptr);
    return m.parallel_engine().events_dispatched();
  };
  // Audits read state and hash bytes but never schedule events, so the
  // simulated schedule — and with it every fingerprint — is identical.
  EXPECT_EQ(run_once(false), run_once(true));
}

// Regression for a latent protocol bug the checker flushed out: a poststore
// packet in flight while another cell wins the line with get_subpage. The
// commit used to refresh the placeholder copies to Shared anyway, handing
// out readable copies of an Atomic line (I1/I2 violations) and demoting the
// lock holder. Now the stale update is dropped. Three cells are needed (the
// issuer's own placeholder is excluded from the refresh set), and the sweep
// over the contender's start offset covers the whole in-flight window.
TEST(Checker, PoststoreRacingGetSubpageIsDropped) {
  for (sim::Duration delta = 0; delta <= 9000; delta += 250) {
    KsrMachine m(MachineConfig::ksr1(3));
    auto arr = m.alloc<double>("arr", 16);
    auto flag = m.alloc<int>("flag", 1);
    m.run([&](Cpu& cpu) {
      if (cpu.id() == 2) (void)cpu.read(arr, 0);  // placeholder-to-be
      if (cpu.id() == 0) cpu.write(flag, 0, 1);
    });
    m.run([&](Cpu& cpu) {
      if (cpu.id() == 0) {
        cpu.write(arr, 0, 4.0);     // invalidates cell 2 -> placeholder
        cpu.post_store(arr.addr(0));  // packet rides asynchronously
        cpu.work(20000);
      } else if (cpu.id() == 1) {
        cpu.work(delta);
        cpu.get_subpage(arr.addr(0));  // may win while the packet flies
        cpu.work(8000);
        cpu.release_subpage(arr.addr(0));
      }
    });
    check::InvariantChecker checker(m);
    EXPECT_NO_THROW(checker.audit_all()) << "delta=" << delta;
  }
}

// ------------------------------------------------- schedule fuzzing ----

TEST(ScheduleFuzz, TieBreakSeedIsReproducibleAndSeedZeroIsInsertionOrder) {
  const auto order_with_seed = [](std::uint64_t seed) {
    sim::Engine eng;
    eng.set_tie_break_seed(seed);
    std::vector<int> order;
    for (int i = 0; i < 12; ++i) {
      eng.at(1000, [&order, i] { order.push_back(i); });
    }
    eng.run();
    return order;
  };
  const std::vector<int> insertion{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(order_with_seed(0), insertion);
  const auto a = order_with_seed(7);
  EXPECT_EQ(a, order_with_seed(7));    // exact replay
  EXPECT_NE(a, insertion);             // actually perturbs
  EXPECT_NE(a, order_with_seed(8));    // distinct schedule per seed
}

TEST(ScheduleFuzz, FuzzSeedPerturbsTheMachineScheduleDeterministically) {
  const auto events_for = [](std::uint64_t seed) {
    MachineConfig cfg = MachineConfig::ksr1(4);
    cfg.sched_fuzz_seed = seed;
    KsrMachine m(cfg);
    sync::HardwareLock lock(m, "lk");
    auto counter = m.alloc<std::uint32_t>("ctr", 1);
    m.run([&](Cpu& cpu) {
      for (int i = 0; i < 8; ++i) {
        lock.acquire(cpu);
        cpu.write(counter, 0, cpu.read(counter, 0) + 1);
        lock.release(cpu);
        cpu.work(cpu.rng().below(500));
      }
    });
    EXPECT_EQ(counter.value(0), 32u) << "seed=" << seed;
    return m.parallel_engine().events_dispatched();
  };
  const std::uint64_t reference = events_for(0);
  const std::uint64_t fuzzed = events_for(41);
  EXPECT_EQ(fuzzed, events_for(41));  // replayable
  EXPECT_NE(fuzzed, reference);       // schedule genuinely differs
}

}  // namespace
}  // namespace ksr::machine
