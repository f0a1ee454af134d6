// ParallelEngine: conservative-quantum multi-domain execution must be a
// pure host-side optimisation (docs/PARALLEL.md). For any thread count the
// engine must dispatch exactly the same events at exactly the same simulated
// times in exactly the same order — pinned here three ways:
//  - per-domain execution logs of a synthetic cross-domain workload,
//    byte-compared across --sim-threads {1,2,4} (and across fuzz seeds);
//  - quantum-boundary edge cases: a packet landing exactly on the quantum
//    edge, an empty domain, the single-domain degenerate shapes, and the
//    lookahead-violation guard;
//  - whole-machine fingerprints (events_dispatched, end time, simulated
//    seconds) and trace CSV bytes for barrier and Integer Sort workloads at
//    sim_threads {1,2,4}, plus an ALLCACHE invariant audit under the
//    parallel engine.
// The same binary is re-run under TSan in -DKSR_TSAN=ON builds
// (tsan_parallel_engine), auditing the worker pool and the static
// domain->thread assignment for host races.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/parallel_engine.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr {
namespace {

// ------------------------------------------------------- synthetic workload

// One log per domain, appended only by events executing in that domain (so
// logging is race-free by the engine's own partitioning). Entries record
// (simulated time, tag): tag >= 0 is a chain step, -src-1 a boundary packet.
using DomainLog = std::vector<std::pair<sim::Time, int>>;

struct Ping {
  sim::ParallelEngine* pe;
  std::vector<DomainLog>* logs;
  unsigned dst;
  int src;
  void operator()() const {
    (*logs)[dst].emplace_back(pe->domain(dst).now(), -src - 1);
  }
};

// Self-rescheduling event chain in one domain. Every step logs; every fifth
// step sends a boundary packet one full quantum ahead (the tightest send the
// lookahead rule admits) to domain 0 — all domains target domain 0 at the
// *same* simulated time, so the barrier merge's tie-break order is exercised
// every round.
struct Chain {
  sim::ParallelEngine* pe;
  std::vector<DomainLog>* logs;
  unsigned d;
  int remaining;
  sim::Time t;
  static constexpr sim::Duration kQuantum = 500;

  void operator()() const {
    (*logs)[d].emplace_back(pe->domain(d).now(), remaining);
    if (remaining == 0) return;
    Chain next = *this;
    next.remaining = remaining - 1;
    next.t = t + 70;
    pe->domain(d).at(next.t, next);
    if (remaining % 5 == 0) {
      pe->send(d, 0, t + kQuantum, Ping{pe, logs, 0, static_cast<int>(d)});
    }
  }
};

struct SyntheticRun {
  std::vector<DomainLog> logs;
  std::uint64_t events = 0;
  std::uint64_t quanta = 0;
  std::uint64_t boundary = 0;
};

SyntheticRun run_synthetic(unsigned threads, std::uint64_t seed = 0,
                           unsigned domains = 4, int steps = 40) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = domains;
  cfg.threads = threads;
  cfg.quantum_ns = Chain::kQuantum;
  sim::ParallelEngine pe(cfg);
  pe.set_tie_break_seed(seed);
  SyntheticRun out;
  out.logs.resize(domains);
  for (unsigned d = 0; d < domains; ++d) {
    pe.domain(d).at(0, Chain{&pe, &out.logs, d, steps, 0});
  }
  pe.run();
  out.events = pe.events_dispatched();
  out.quanta = pe.quanta();
  out.boundary = pe.boundary_packets();
  return out;
}

TEST(ParallelEngine, MultiDomainRunIsBitIdenticalAcrossThreadCounts) {
  const SyntheticRun t1 = run_synthetic(1);
  const SyntheticRun t2 = run_synthetic(2);
  const SyntheticRun t4 = run_synthetic(4);
  ASSERT_GT(t1.events, 0u);
  ASSERT_GT(t1.boundary, 0u);  // the workload must cross domains
  ASSERT_GT(t1.quanta, 1u);    // ...across more than one quantum
  EXPECT_EQ(t1.events, t2.events);
  EXPECT_EQ(t1.events, t4.events);
  EXPECT_EQ(t1.quanta, t2.quanta);
  EXPECT_EQ(t1.quanta, t4.quanta);
  EXPECT_EQ(t1.boundary, t2.boundary);
  EXPECT_EQ(t1.boundary, t4.boundary);
  EXPECT_EQ(t1.logs, t2.logs);
  EXPECT_EQ(t1.logs, t4.logs);
}

TEST(ParallelEngine, FuzzSeedsReplayIdenticallyAtAnyThreadCount) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xDEAD}}) {
    const SyntheticRun t1 = run_synthetic(1, seed);
    const SyntheticRun t2 = run_synthetic(2, seed);
    const SyntheticRun t4 = run_synthetic(4, seed);
    EXPECT_EQ(t1.logs, t2.logs) << "seed=" << seed;
    EXPECT_EQ(t1.logs, t4.logs) << "seed=" << seed;
    EXPECT_EQ(t1.events, t2.events) << "seed=" << seed;
    EXPECT_EQ(t1.events, t4.events) << "seed=" << seed;
  }
}

TEST(ParallelEngine, ThreadCountBeyondDomainsIsClampedAndIdentical) {
  const SyntheticRun ref = run_synthetic(1);
  const SyntheticRun wide = run_synthetic(16);  // > domains + 1
  EXPECT_EQ(ref.logs, wide.logs);
  EXPECT_EQ(ref.events, wide.events);
}

// --------------------------------------------------------- quantum edges

TEST(ParallelEngine, PacketExactlyOnQuantumEdgeIsDelivered) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = 2;
  cfg.threads = 2;
  cfg.quantum_ns = 100;
  sim::ParallelEngine pe(cfg);
  std::vector<sim::Time> delivered;
  // Event at t=50 (quantum [0,100)) sends to exactly t=100 — the first
  // admissible instant, the exclusive horizon of the sender's quantum and
  // the inclusive start of the next.
  pe.domain(0).at(50, [&pe, &delivered] {
    pe.send(0, 1, 100, [&pe, &delivered] {
      delivered.push_back(pe.domain(1).now());
    });
  });
  pe.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 100u);
  EXPECT_EQ(pe.boundary_packets(), 1u);
}

TEST(ParallelEngine, LookaheadViolationThrows) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = 2;
  cfg.threads = 1;
  cfg.quantum_ns = 100;
  sim::ParallelEngine pe(cfg);
  pe.domain(0).at(50, [&pe] {
    pe.send(0, 1, 99, [] {});  // t < horizon (100): conservative rule broken
  });
  EXPECT_THROW(pe.run(), std::logic_error);
}

TEST(ParallelEngine, EmptyDomainsAreHarmless) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = 4;
  cfg.threads = 4;
  cfg.quantum_ns = 100;
  sim::ParallelEngine pe(cfg);
  int ran = 0;
  pe.domain(2).at(10, [&ran] { ++ran; });  // domains 0, 1, 3 stay empty
  pe.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pe.events_dispatched(), 1u);
}

TEST(ParallelEngine, SetupPhaseSendSeedsDestinationDirectly) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = 2;
  cfg.threads = 1;
  cfg.quantum_ns = 100;
  sim::ParallelEngine pe(cfg);
  sim::Time seen = 0;
  pe.send(1, 0, 7, [&pe, &seen] { seen = pe.domain(0).now(); });  // t < Δ: fine
  pe.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(pe.boundary_packets(), 0u);  // setup sends bypass the channels
}

// ------------------------------------------------- degenerate shapes

TEST(ParallelEngine, SingleDomainMatchesPlainEngine) {
  auto workload = [](sim::Engine& eng) {
    int sink = 0;
    for (int i = 0; i < 200; ++i) {
      eng.at(static_cast<sim::Time>(i) * 3, [&sink] { ++sink; });
    }
    eng.spawn([&eng] {
      for (int i = 0; i < 50; ++i) eng.wait_until(eng.now() + 11);
    });
  };
  sim::Engine plain;
  workload(plain);
  plain.run();

  for (unsigned threads : {1u, 4u}) {
    sim::ParallelEngine::Config cfg;
    cfg.domains = 1;
    cfg.threads = threads;  // threads > 1: runs whole-sim on a worker thread
    sim::ParallelEngine pe(cfg);
    pe.domain(0).set_tie_break_seed(0);
    workload(pe.domain(0));
    pe.run();
    EXPECT_EQ(pe.events_dispatched(), plain.events_dispatched())
        << "threads=" << threads;
    EXPECT_EQ(pe.domain(0).now(), plain.now()) << "threads=" << threads;
  }
}

TEST(ParallelEngine, ConfigValidation) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = 0;
  EXPECT_THROW(sim::ParallelEngine{cfg}, std::invalid_argument);
  cfg.domains = 2;
  cfg.quantum_ns = 0;  // multi-domain with no lookahead bound
  EXPECT_THROW(sim::ParallelEngine{cfg}, std::invalid_argument);
  cfg.quantum_ns = 100;
  EXPECT_NO_THROW(sim::ParallelEngine{cfg});
}

TEST(ParallelEngine, DomainExceptionPropagatesFromWorker) {
  sim::ParallelEngine::Config cfg;
  cfg.domains = 2;
  cfg.threads = 2;
  cfg.quantum_ns = 100;
  sim::ParallelEngine pe(cfg);
  pe.domain(1).at(10, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pe.run(), std::runtime_error);
}

// ------------------------------------------------- machine-level pinning

struct MachineFingerprint {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  double seconds = 0;
  std::string trace_csv;
};

MachineFingerprint barrier_run(unsigned sim_threads) {
  machine::KsrMachine m(
      machine::MachineConfig::ksr1(8).with_sim_threads(sim_threads));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
  double last = 0;
  m.run([&](machine::Cpu& cpu) {
    for (int e = 0; e < 5; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    last = cpu.seconds();
  });
  std::ostringstream csv;
  tracer.write_csv(csv);
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          last, csv.str()};
}

MachineFingerprint is_run(unsigned sim_threads) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(4)
                            .scaled_by(64)
                            .with_sim_threads(sim_threads));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  nas::IsConfig cfg;
  cfg.log2_keys = 11;
  cfg.log2_buckets = 8;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  std::ostringstream csv;
  tracer.write_csv(csv);
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          r.seconds, csv.str()};
}

TEST(ParallelEngine, MachineBarrierRunIsByteIdenticalAcrossSimThreads) {
  const MachineFingerprint a = barrier_run(1);
  ASSERT_GT(a.events, 0u);
  ASSERT_FALSE(a.trace_csv.empty());
  for (unsigned t : {2u, 4u}) {
    const MachineFingerprint b = barrier_run(t);
    EXPECT_EQ(a.events, b.events) << "sim_threads=" << t;
    EXPECT_EQ(a.end_time, b.end_time) << "sim_threads=" << t;
    EXPECT_EQ(a.seconds, b.seconds) << "sim_threads=" << t;
    EXPECT_EQ(a.trace_csv, b.trace_csv) << "sim_threads=" << t;
  }
}

TEST(ParallelEngine, MachineIntegerSortIsByteIdenticalAcrossSimThreads) {
  const MachineFingerprint a = is_run(1);
  ASSERT_GT(a.events, 0u);
  for (unsigned t : {2u, 4u}) {
    const MachineFingerprint b = is_run(t);
    EXPECT_EQ(a.events, b.events) << "sim_threads=" << t;
    EXPECT_EQ(a.end_time, b.end_time) << "sim_threads=" << t;
    EXPECT_EQ(a.seconds, b.seconds) << "sim_threads=" << t;
    EXPECT_EQ(a.trace_csv, b.trace_csv) << "sim_threads=" << t;
  }
}

TEST(ParallelEngine, InvariantAuditPassesUnderParallelEngine) {
  machine::KsrMachine m(
      machine::MachineConfig::ksr1(4).scaled_by(64).with_sim_threads(4));
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  nas::IsConfig cfg;
  cfg.log2_keys = 10;
  cfg.log2_buckets = 7;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  EXPECT_NO_THROW(checker.audit_all());
  m.attach_checker(nullptr);
}

}  // namespace
}  // namespace ksr
