// Host-side SweepRunner: submission-order merging, the error contract,
// bit-equality of sharded vs serial sweeps, and clean pool shutdown. Plus
// the sweep harness built on it (study::Study): observability merged in
// submission order and whole-machine fingerprints for any --jobs.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "ksr/host/sweep_runner.hpp"
#include "ksr/machine/bus_machine.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/study/sweep.hpp"
#include "ksr/sync/barrier.hpp"

namespace {

using ksr::host::SweepRunner;

TEST(SweepRunner, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(SweepRunner::default_jobs(), 1u);
  SweepRunner r;
  EXPECT_GE(r.jobs(), 1u);
  SweepRunner r0(0);
  EXPECT_EQ(r0.jobs(), SweepRunner::default_jobs());
}

// Results must come back in submission order even when later-submitted jobs
// finish first: job i sleeps longer the earlier it was submitted.
TEST(SweepRunner, MergesResultsInSubmissionOrder) {
  SweepRunner runner(4);
  constexpr int kJobs = 12;
  std::vector<std::function<int()>> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    jobs.emplace_back([i] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds((kJobs - i) * 2));
      return i * 10 + 1;
    });
  }
  const std::vector<int> out = runner.run(jobs);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10 + 1);
  }
}

TEST(SweepRunner, RunIndexedCoversEveryIndexExactlyOnce) {
  SweepRunner runner(3);
  constexpr std::size_t kCount = 97;
  std::vector<std::atomic<int>> hits(kCount);
  runner.run_indexed(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// With a pool, every job still runs and the earliest-submitted failure is
// rethrown — the same exception a serial run would have surfaced.
TEST(SweepRunner, PoolPropagatesEarliestSubmittedException) {
  SweepRunner runner(4);
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.emplace_back([i, &executed]() -> int {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 2) throw std::runtime_error("boom 2");
      if (i == 5) throw std::runtime_error("boom 5");
      return i;
    });
  }
  try {
    (void)runner.run(jobs);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
  EXPECT_EQ(executed.load(), 8);  // a failing job does not cancel the batch
}

// Serial mode keeps classic semantics: the sweep aborts at the failing job.
TEST(SweepRunner, SerialModeAbortsAtFailingJob) {
  SweepRunner runner(1);
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.emplace_back([i, &executed]() -> int {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 2) throw std::runtime_error("boom 2");
      return i;
    });
  }
  try {
    (void)runner.run(jobs);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
  EXPECT_EQ(executed.load(), 3);  // jobs 3..7 never ran
}

// The determinism contract on real simulations: a two-machine IS sweep must
// produce bit-identical simulated times and event fingerprints whether it
// runs serially or sharded over four host threads.
TEST(SweepRunner, TwoMachineSweepIsBitIdenticalAcrossJobCounts) {
  struct Point {
    double seconds = 0.0;
    std::uint64_t events = 0;
  };
  const auto sweep = [](unsigned host_jobs) {
    SweepRunner runner(host_jobs);
    std::vector<std::function<Point()>> jobs;
    for (unsigned p : {2u, 4u}) {
      jobs.emplace_back([p] {
        ksr::machine::KsrMachine m(
            ksr::machine::MachineConfig::ksr1(p).scaled_by(64));
        ksr::nas::IsConfig cfg;
        cfg.log2_keys = 11;
        cfg.log2_buckets = 7;
        const auto r = ksr::nas::run_is(m, cfg);
        return Point{r.seconds, m.parallel_engine().events_dispatched()};
      });
    }
    return runner.run(jobs);
  };
  const auto serial = sweep(1);
  const auto sharded = sweep(4);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seconds, sharded[i].seconds);  // exact, not near
    EXPECT_EQ(serial[i].events, sharded[i].events);
    EXPECT_GT(serial[i].events, 0u);
  }
}

// Machine::domain_plan's once-only warnings are process-wide state: sweep
// jobs building refused (bus) and leaf-rounded (ring) partitions at the
// same time must not race on them (tsan_host_runner runs this).
TEST(SweepRunner, ConcurrentDomainPlanWarningsAreRaceFree) {
  using ksr::machine::MachineConfig;
  SweepRunner runner(4);
  std::vector<std::function<unsigned()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.emplace_back([] {
      ksr::machine::BusMachine m(
          MachineConfig::symmetry(8).with_cells_per_domain(4));
      return m.domains();
    });
    jobs.emplace_back([] {
      // 48 cells per domain round up to two 32-cell leaves: 2 domains.
      ksr::machine::KsrMachine m(
          MachineConfig::ksr1(128).scaled_by(64).with_cells_per_domain(48));
      return m.domains();
    });
  }
  const std::vector<unsigned> domains = runner.run(jobs);
  ASSERT_EQ(domains.size(), jobs.size());
  for (std::size_t i = 0; i < domains.size(); ++i) {
    EXPECT_EQ(domains[i], i % 2 == 0 ? 1u : 2u) << "job " << i;
  }
}

// Regression for a stale-worker race: run_indexed must not return until
// every pool thread has left the batch, or a late-waking worker could invoke
// the previous (already destroyed) task and steal indices from the next
// batch. Each round's task and hit counters are batch-local, so under
// ASan/TSan a stale worker touches freed memory; in any build it breaks the
// exactly-once accounting below.
TEST(SweepRunner, BackToBackBatchesNeverLeakStaleWorkers) {
  SweepRunner runner(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = 2 + static_cast<std::size_t>(round % 7);
    std::vector<std::atomic<int>> hits(count);
    runner.run_indexed(count, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

// Pool lifecycle: construction/destruction with no batch, repeated batches
// on one pool, empty and single-item batches, and more workers than jobs —
// all must shut down without hanging or leaking threads (ctest enforces the
// no-hang half via its timeout; ASan/TSan builds enforce the rest).
TEST(SweepRunner, ShutdownIsCleanInAllLifecycles) {
  { SweepRunner unused(4); }  // never ran a batch
  {
    SweepRunner runner(4);
    runner.run_indexed(0, [](std::size_t) { FAIL(); });  // empty batch
    std::atomic<int> n{0};
    runner.run_indexed(1, [&](std::size_t) { ++n; });  // inline path
    for (int round = 0; round < 3; ++round) {          // pool reuse
      runner.run_indexed(16, [&](std::size_t) { ++n; });
    }
    EXPECT_EQ(n.load(), 1 + 3 * 16);
  }
  {
    SweepRunner wide(8);  // more workers than jobs
    std::atomic<int> n{0};
    wide.run_indexed(2, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 2);
  }
}

// ------------------------------------------------------------ sweep harness

using ksr::machine::MachineConfig;
using ksr::study::Job;
using ksr::study::Study;

// Per-process output paths: ctest may run this binary whole (TSan build) and
// test by test at the same time.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "ksr_" + std::to_string(::getpid()) + "_" + name;
}

/// The file's bytes; the file is removed.
std::string slurp(const std::string& path) {
  std::ostringstream os;
  {
    std::ifstream in(path, std::ios::binary);
    os << in.rdbuf();
  }
  std::remove(path.c_str());
  return os.str();
}

struct HarnessRun {
  std::string trace, metrics, topo;
  std::uint64_t events = 0;          // the harness's [host] fingerprint
  std::uint64_t machine_events = 0;  // each machine's own count, summed
  std::uint64_t mode_b_events = 0;   // the mode-B machine, every domain
  std::uint64_t mode_b_domain0 = 0;  // the mode-B machine, domain 0 only
};

// Two mode-A IS points and one mode-B (two-domain) point with trace CSV,
// metrics CSV and topo report on, over `jobs` host threads.
HarnessRun harness_sweep(unsigned jobs) {
  const std::string base = temp_path("harness_j" + std::to_string(jobs));
  ksr::study::BenchOptions opt;
  opt.jobs = jobs;
  opt.obs.trace = true;
  opt.obs.trace_out = base + "_trace.csv";
  opt.obs.metrics_csv = base + "_metrics.csv";
  opt.obs.topo_report = base + "_topo.txt";
  struct Counts {
    std::uint64_t events = 0, domain0 = 0;
  };
  auto is_job = [](MachineConfig cfg, std::string label) {
    return [cfg, label](Job& job) {
      ksr::machine::Machine& m = job.machine(cfg, label);
      ksr::nas::IsConfig is;
      is.log2_keys = 10;
      is.log2_buckets = 7;
      EXPECT_TRUE(ksr::nas::run_is(m, is).ranks_valid) << label;
      return Counts{m.parallel_engine().events_dispatched(),
                    m.engine_of(0).events_dispatched()};
    };
  };
  HarnessRun out;
  {
    Study study(opt, "harness");
    const std::vector<Counts> counts = study.run<Counts>(
        {is_job(MachineConfig::ksr1(2).scaled_by(64), "is p=2"),
         is_job(MachineConfig::ksr1(4).scaled_by(64), "is p=4"),
         is_job(MachineConfig::ksr1(64).scaled_by(64).with_cells_per_domain(32),
                "is-modeB p=64")});
    out.events = study.events_dispatched();
    for (const Counts& c : counts) out.machine_events += c.events;
    out.mode_b_events = counts[2].events;
    out.mode_b_domain0 = counts[2].domain0;
    EXPECT_TRUE(study.close());
  }
  out.trace = slurp(opt.obs.trace_out);
  out.metrics = slurp(opt.obs.metrics_csv);
  out.topo = slurp(opt.obs.topo_report);
  (void)slurp(opt.obs.topo_report + ".matrix.csv");
  return out;
}

TEST(Study, SweepOutputsAndFingerprintAreIdenticalAcrossJobCounts) {
  const HarnessRun serial = harness_sweep(1);
  const HarnessRun sharded = harness_sweep(4);
  ASSERT_FALSE(serial.trace.empty());
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.topo.empty());
  EXPECT_EQ(serial.trace, sharded.trace);
  EXPECT_EQ(serial.metrics, sharded.metrics);
  EXPECT_EQ(serial.topo, sharded.topo);
  // Job sections follow submission order.
  const auto a = serial.topo.find("=== job is p=2 ===");
  const auto b = serial.topo.find("=== job is p=4 ===");
  const auto c = serial.topo.find("=== job is-modeB p=64 ===");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(serial.trace.find("\nis p=2,"), serial.trace.find("\nis p=4,"));
  EXPECT_LT(serial.trace.find("\nis p=4,"),
            serial.trace.find("\nis-modeB p=64,"));
  // The fingerprint sums every domain of every machine.
  EXPECT_EQ(serial.events, serial.machine_events);
  EXPECT_EQ(serial.events, sharded.events);
  EXPECT_GT(serial.mode_b_events, serial.mode_b_domain0);
}

// A failing job surfaces the earliest-submitted exception at any --jobs;
// nothing of the failed batch is collected or counted, and the study still
// runs later batches and closes cleanly.
TEST(Study, FailingJobSurfacesEarliestExceptionAndClosesCleanly) {
  for (unsigned jobs : {1u, 4u}) {
    ksr::study::BenchOptions opt;
    opt.jobs = jobs;
    opt.obs.trace = true;
    opt.obs.trace_out = temp_path("harness_fail.csv");
    auto barrier_job = [](int i) {
      return [i](Job& job) {
        ksr::machine::Machine& m =
            job.machine(MachineConfig::ksr1(2), "job " + std::to_string(i));
        auto barrier =
            ksr::sync::make_barrier(m, ksr::sync::BarrierKind::kCounter);
        m.run([&](ksr::machine::Cpu& cpu) { barrier->arrive(cpu); });
        if (i == 1) throw std::runtime_error("boom 1");
        if (i == 3) throw std::runtime_error("boom 3");
        return i;
      };
    };
    {
      Study study(opt, "harness_fail");
      std::vector<std::function<int(Job&)>> sweep;
      for (int i = 0; i < 4; ++i) sweep.push_back(barrier_job(i));
      try {
        (void)study.run(sweep);
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom 1") << "jobs=" << jobs;
      }
      EXPECT_EQ(study.events_dispatched(), 0u);
      const std::vector<int> after = study.run<int>({barrier_job(2)});
      EXPECT_EQ(after[0], 2);
      EXPECT_GT(study.events_dispatched(), 0u);
      EXPECT_TRUE(study.close());
    }
    const std::string trace = slurp(opt.obs.trace_out);
    EXPECT_EQ(trace.find("\njob 0,"), std::string::npos) << "jobs=" << jobs;
    EXPECT_NE(trace.find("\njob 2,"), std::string::npos) << "jobs=" << jobs;
  }
}

}  // namespace
