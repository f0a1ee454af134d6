// Event-tracer tests: ring and coherence activity is captured with the
// right categories, timestamps are monotone, barrier episodes and lock
// acquisitions are bracketed, CSV renders with the drop footer,
// over-capacity logging is accounted (not silent), category masks filter,
// and an untraced machine behaves identically (timing unchanged).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"

namespace ksr {
namespace {

using machine::Cpu;
using machine::KsrMachine;
using machine::MachineConfig;

TEST(Trace, CapturesRingAndCoherenceEvents) {
  KsrMachine m(MachineConfig::ksr1(2));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  auto arr = m.alloc<int>("a", 16);
  auto flag = m.alloc<int>("f", 1);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 1);
      cpu.write(flag, 0, 1);
    } else {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      (void)cpu.read(arr, 0);   // remote fetch: ring + grant-shared
      cpu.write(arr, 0, 2);     // upgrade: invalidate at cell 0
    }
  });
  EXPECT_GT(tracer.count("ring", "inject"), 0u);
  EXPECT_EQ(tracer.count("ring", "inject"), tracer.count("ring", "deliver"));
  EXPECT_GT(tracer.count("coherence", "grant-shared"), 0u);
  EXPECT_GT(tracer.count("coherence", "grant-exclusive"), 0u);
  EXPECT_GT(tracer.count("coherence", "invalidate"), 0u);
}

TEST(Trace, RingAndCoherenceTimestampsAreMonotone) {
  // Ring and coherence events carry the global engine clock, so they are
  // non-decreasing in log order. (Sync/stall events use the logging cpu's
  // local clock, which runs ahead of the engine — so the whole-buffer
  // property deliberately does NOT hold; restrict to the global-clock
  // categories.)
  KsrMachine m(MachineConfig::ksr1(4));
  obs::Tracer tracer;
  tracer.set_enabled_categories("ring,coherence");
  m.attach_tracer(&tracer);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
  m.run([&](Cpu& cpu) {
    for (int e = 0; e < 3; ++e) barrier->arrive(cpu);
  });
  ASSERT_GT(tracer.size(), 0u);
  for (std::size_t i = 1; i < tracer.size(); ++i) {
    EXPECT_GE(tracer[i].t, tracer[i - 1].t);
  }
}

TEST(Trace, BarrierEpisodesAreBracketed) {
  KsrMachine m(MachineConfig::ksr1(4));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
  m.run([&](Cpu& cpu) {
    for (int e = 0; e < 3; ++e) barrier->arrive(cpu);
  });
  // Every arrive gets a depart: 3 episodes x 4 cpus each.
  EXPECT_EQ(tracer.count("sync", "barrier-arrive"), 12u);
  EXPECT_EQ(tracer.count("sync", "barrier-arrive"),
            tracer.count("sync", "barrier-depart"));
  // Departs carry the episode wait in detail (>= 0).
  for (const obs::Tracer::Record& r : tracer) {
    if (r.cat == obs::kCatSync && r.ev == obs::kEvBarrierDepart) {
      EXPECT_GE(r.detail, 0);
    }
  }
}

// Locks log through the same bracket: lock-acquire, lock-acquired (detail =
// the wait since that cpu's acquire) and lock-release per operation.
TEST(Trace, LockAcquisitionsAreBracketed) {
  for (const sync::LockKind kind :
       {sync::LockKind::kHardware, sync::LockKind::kReadWrite,
        sync::LockKind::kAnderson}) {
    KsrMachine m(MachineConfig::ksr1(4));
    obs::Tracer tracer;
    m.attach_tracer(&tracer);
    (void)sync::lock_seconds(m, kind, 5, sync::kFig3Section, 50);
    // 5 operations x 4 cpus each.
    EXPECT_EQ(tracer.count("sync", "lock-acquire"), 20u);
    EXPECT_EQ(tracer.count("sync", "lock-acquired"), 20u);
    EXPECT_EQ(tracer.count("sync", "lock-release"), 20u);
    std::vector<sim::Time> start(4, 0);
    for (const obs::Tracer::Record& r : tracer) {
      if (r.cat != obs::kCatSync) continue;
      if (r.ev == obs::kEvLockAcquire) start[r.actor] = r.t;
      if (r.ev == obs::kEvLockAcquired) {
        EXPECT_EQ(r.detail, static_cast<std::int64_t>(r.t - start[r.actor]))
            << to_string(kind);
      }
    }
  }
}

TEST(Trace, AtomicContentionProducesNacksAndStallEvents) {
  KsrMachine m(MachineConfig::ksr1(4));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  auto lock = m.alloc<int>("lock", 1);
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < 5; ++i) {
      cpu.get_subpage(lock.addr(0));
      cpu.work(2000);
      cpu.release_subpage(lock.addr(0));
    }
  });
  EXPECT_GT(tracer.count("coherence", "grant-atomic"), 0u);
  EXPECT_GT(tracer.count("coherence", "nack"), 0u);
  // Stall attribution: every NACKed attempt logs its backoff nap, and every
  // completed get_subpage its total acquire latency.
  EXPECT_GT(tracer.count("stall", "nack-backoff"), 0u);
  EXPECT_GT(tracer.count("stall", "remote-acquire"), 0u);
}

TEST(Trace, CsvHasHeaderRowsAndDropFooter) {
  obs::Tracer tracer;
  tracer.log(5, "ring", "inject", 1, 2, 3);
  std::ostringstream os;
  tracer.write_csv(os);
  EXPECT_EQ(os.str(),
            "time_ns,category,event,subject,actor,detail,aux\n"
            "5,ring,inject,1,2,3,0\n"
            "# events=1 dropped=0\n");
}

TEST(Trace, OverCapacityLoggingIsAccounted) {
  // The PR-3 bugfix: a full buffer used to swallow records silently, making
  // a truncated trace indistinguishable from a complete one.
  obs::Tracer tracer;
  tracer.set_capacity(10);
  for (int i = 0; i < 100; ++i) tracer.log(1, "x", "y", 0, 0);
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.dropped(), 90u);
  EXPECT_EQ(tracer.total_logged(), 100u);
  std::ostringstream os;
  tracer.write_csv(os);
  EXPECT_NE(os.str().find("# events=10 dropped=90"), std::string::npos);
}

TEST(Trace, CategoryMaskFilters) {
  obs::Tracer tracer;
  tracer.set_enabled_categories("ring");
  EXPECT_TRUE(tracer.category_enabled(obs::kCatRing));
  EXPECT_FALSE(tracer.category_enabled(obs::kCatSync));
  tracer.log(1, obs::kCatRing, obs::kEvInject, 0, 0);
  tracer.log(2, obs::kCatSync, obs::kEvBarrierArrive, 0, 0);
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);  // masked records are skipped, not dropped
  tracer.enable_all_categories();
  tracer.log(3, obs::kCatSync, obs::kEvBarrierArrive, 0, 0);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(Trace, InterningRoundTrips) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.intern_category("ring"), obs::kCatRing);
  EXPECT_EQ(tracer.intern_event("grant-shared"), obs::kEvGrantShared);
  const std::uint16_t custom = tracer.intern_category("my-subsystem");
  EXPECT_GE(custom, obs::kBuiltinCategories);
  EXPECT_EQ(tracer.category_name(custom), "my-subsystem");
  EXPECT_EQ(tracer.intern_category("my-subsystem"), custom);
}

TEST(Trace, TracingDoesNotPerturbTiming) {
  auto run_once = [](bool traced) {
    KsrMachine m(MachineConfig::ksr1(4));
    obs::Tracer tracer;
    if (traced) m.attach_tracer(&tracer);
    auto arr = m.alloc<int>("a", 1024);
    auto res = m.run([&](Cpu& cpu) {
      for (unsigned i = cpu.id(); i < 1024; i += cpu.nproc()) {
        cpu.write(arr, i, 1);
      }
      for (unsigned i = 0; i < 1024; i += 32) (void)cpu.read(arr, i);
    });
    return res.seconds;
  };
  EXPECT_DOUBLE_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace ksr
