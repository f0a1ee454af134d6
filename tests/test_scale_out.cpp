// Ring-of-rings scale-out (sharded coherence directory, DESIGN.md §7):
//  - CellMask: the >64-cell holder/placeholder set, whose inline word 0 must
//    behave exactly like the seed's single uint64_t;
//  - N-leaf topology mapping at 128 cells and the 1088-cell ceiling;
//  - mode A (single-domain) multi-ring machines stay byte-identical across
//    --sim-threads, trace CSV included;
//  - mode B (multi-domain) coherent machines actually partition (no
//    single-domain fallback), produce sim_threads-independent results, and
//    keep migratory / atomic / poststore semantics across a domain boundary;
//  - full I1-I6 audits pass after multi-domain and 1088-cell runs;
//  - the cross-mode oracle: a registry row gives the same semantic result
//    in mode A and mode B, within a pinned simulated-time ceiling.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ksr/cache/cell_mask.hpp"
#include "ksr/check/checker.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/obs/topo.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/serve/job.hpp"
#include "ksr/serve/json.hpp"

namespace ksr {
namespace {

using cache::CellMask;

// ----------------------------------------------------------------- CellMask

TEST(CellMask, InlineWordMatchesSeedSemantics) {
  CellMask m;
  EXPECT_TRUE(m.none());
  EXPECT_EQ(m.first_set(), -1);
  m.set(0);
  m.set(5);
  m.set(63);
  EXPECT_TRUE(m.test(5));
  EXPECT_FALSE(m.test(4));
  EXPECT_EQ(m.word0(), (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5) |
                           (std::uint64_t{1} << 63));
  EXPECT_EQ(m.count(), 3u);
  EXPECT_EQ(m.first_set(), 0);
  m.clear(0);
  EXPECT_EQ(m.first_set(), 5);
  // Cells past 63 report absent without ever allocating the overflow words.
  EXPECT_FALSE(m.test(64));
  EXPECT_FALSE(m.test(1087));
}

TEST(CellMask, HighCellsAndAscendingIteration) {
  CellMask m;
  m.set(1087);
  m.set(64);
  m.set(3);
  m.set(500);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_EQ(m.first_set(), 3);
  std::vector<unsigned> order;
  m.for_each([&](unsigned c) { order.push_back(c); });
  EXPECT_EQ(order, (std::vector<unsigned>{3, 64, 500, 1087}));
  order.clear();
  m.for_each_except(500, [&](unsigned c) { order.push_back(c); });
  EXPECT_EQ(order, (std::vector<unsigned>{3, 64, 1087}));
  EXPECT_EQ(m.to_string(), "{3,64,500,1087}");
}

TEST(CellMask, SoleHolderTestsAcrossWords) {
  CellMask m;
  m.assign_single(70);
  EXPECT_TRUE(m.none_except(70));
  EXPECT_FALSE(m.none_except(69));
  m.set(2);
  EXPECT_FALSE(m.none_except(70));
  CellMask lo;
  lo.set(2);
  EXPECT_TRUE(m.intersects(lo));
  EXPECT_FALSE(m.intersects_except(lo, 2));
}

// Regression: the defaulted move ops copied the inline word 0 but stole the
// overflow array, so a moved-from mask with only low cells still *read* as
// its old low set while a mask with high cells became "low cells only" in
// the destination's source. Moves must leave the source empty.
TEST(CellMask, MoveLeavesSourceEmpty) {
  CellMask m;
  m.set(3);
  m.set(63);
  m.set(64);
  m.set(1087);
  CellMask moved(std::move(m));
  EXPECT_EQ(moved.to_string(), "{3,63,64,1087}");
  EXPECT_TRUE(m.none());  // NOLINT(bugprone-use-after-move): that's the test
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.first_set(), -1);

  CellMask assigned;
  assigned.set(9);  // pre-existing content must be fully replaced
  assigned = std::move(moved);
  EXPECT_EQ(assigned.to_string(), "{3,63,64,1087}");
  EXPECT_TRUE(moved.none());  // NOLINT(bugprone-use-after-move)

  // Self-move must not clear the mask.
  CellMask& alias = assigned;
  assigned = std::move(alias);
  EXPECT_EQ(assigned.to_string(), "{3,63,64,1087}");

  // A low-cells-only mask (no overflow allocation) moves the same way.
  CellMask lo;
  lo.set(0);
  lo.set(63);
  CellMask lo2(std::move(lo));
  EXPECT_EQ(lo2.count(), 2u);
  EXPECT_TRUE(lo.none());  // NOLINT(bugprone-use-after-move)
}

// The exact word-boundary extents: 63 is the last inline bit, 64 the first
// overflow bit, 1087 (kMaxCells - 1) the last legal cell.
TEST(CellMask, WordBoundaryExtents) {
  CellMask m;
  m.set(63);
  EXPECT_TRUE(m.test(63));
  EXPECT_FALSE(m.test(64));
  EXPECT_EQ(m.word0(), std::uint64_t{1} << 63);
  m.set(64);
  EXPECT_TRUE(m.test(64));
  EXPECT_EQ(m.count(), 2u);
  EXPECT_TRUE(m.none_except(63) == false && m.none_except(64) == false);
  m.clear(63);
  EXPECT_EQ(m.first_set(), 64);
  m.clear(64);
  EXPECT_TRUE(m.none());
  m.set(CellMask::kMaxCells - 1);
  EXPECT_EQ(m.first_set(), static_cast<int>(CellMask::kMaxCells - 1));
  EXPECT_TRUE(m.none_except(CellMask::kMaxCells - 1));
}

TEST(CellMask, SetAlgebra) {
  CellMask a;
  a.set(1);
  a.set(100);
  a.set(200);
  CellMask b;
  b.set(100);
  b.set(300);
  CellMask diff = a;
  diff.and_not(b);
  EXPECT_EQ(diff.to_string(), "{1,200}");
  CellMask both = a;
  both.intersect(b);
  EXPECT_EQ(both.to_string(), "{100}");
  a.retain_only(200);
  EXPECT_EQ(a.to_string(), "{200}");
  a.retain_only(7);  // not present: empties the mask
  EXPECT_TRUE(a.none());
}

TEST(CellMask, CopyAndEquality) {
  CellMask a;
  a.set(10);
  a.set(900);
  CellMask b = a;  // deep-copies the overflow words
  EXPECT_EQ(a, b);
  b.clear(900);
  EXPECT_NE(a, b);
  b = a;
  EXPECT_EQ(a, b);
  // Assigning from an inline-only mask clears stale overflow state.
  CellMask c;
  c.set(3);
  b = c;
  EXPECT_FALSE(b.test(900));
  EXPECT_EQ(b, c);
}

// ----------------------------------------------------------------- topology

TEST(Topology, LeafMappingAt128Cells) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(128));
  EXPECT_EQ(m.leaf_count(), 4u);
  EXPECT_EQ(m.leaf_of(0), 0u);
  EXPECT_EQ(m.leaf_of(31), 0u);
  EXPECT_EQ(m.leaf_of(32), 1u);
  EXPECT_EQ(m.leaf_of(127), 3u);
  EXPECT_NE(m.level1_ring(), nullptr);
  EXPECT_EQ(m.domains(), 1u);
}

// --------------------------------------------- mode A: single-domain N-ring

struct Fp {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  double seconds = 0;
  std::string trace_csv;
};

Fp mode_a_128(unsigned sim_threads) {
  machine::KsrMachine m(
      machine::MachineConfig::ksr1(128).with_sim_threads(sim_threads));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  nas::IsConfig cfg;
  cfg.log2_keys = 10;
  cfg.log2_buckets = 7;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  std::ostringstream csv;
  tracer.write_csv(csv);
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          r.seconds, csv.str()};
}

TEST(ScaleOut, ModeAMultiRingByteIdenticalAcrossSimThreads) {
  const Fp a = mode_a_128(1);
  ASSERT_GT(a.events, 0u);
  ASSERT_FALSE(a.trace_csv.empty());
  for (unsigned t : {2u, 4u}) {
    const Fp b = mode_a_128(t);
    EXPECT_EQ(a.events, b.events) << "sim_threads=" << t;
    EXPECT_EQ(a.end_time, b.end_time) << "sim_threads=" << t;
    EXPECT_EQ(a.seconds, b.seconds) << "sim_threads=" << t;
    EXPECT_EQ(a.trace_csv, b.trace_csv) << "sim_threads=" << t;
  }
}

// ------------------------------------------------ mode B: real multi-domain

Fp mode_b_64(unsigned sim_threads) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(64)
                            .with_cells_per_domain(32)
                            .with_sim_threads(sim_threads));
  // The acceptance bar for the scale-out PR: a >=2-leaf coherent machine
  // must actually partition, not fall back to one domain.
  EXPECT_EQ(m.domains(), 2u);
  nas::IsConfig cfg;
  cfg.log2_keys = 10;
  cfg.log2_buckets = 7;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          r.seconds, ""};
}

TEST(ScaleOut, MultiDomainCoherentRunIsSimThreadsInvariant) {
  const Fp a = mode_b_64(1);
  ASSERT_GT(a.events, 0u);
  for (unsigned t : {2u, 4u}) {
    const Fp b = mode_b_64(t);
    EXPECT_EQ(a.events, b.events) << "sim_threads=" << t;
    EXPECT_EQ(a.end_time, b.end_time) << "sim_threads=" << t;
    EXPECT_EQ(a.seconds, b.seconds) << "sim_threads=" << t;
  }
}

// Cells 0 (leaf 0, domain 0) and 32 (leaf 1, domain 1) bounce a line on a
// 64-cell, two-domain machine.
struct Migratory {
  int seen_by_0 = 0;
  int seen_by_32 = 0;
  int last = 0;
};

Migratory migratory_writes(machine::KsrMachine& m) {
  auto arr = m.alloc<int>("a", 16);
  auto phase = m.alloc<int>("phase", 64);  // separate sub-page
  Migratory r;
  m.run([&](machine::Cpu& cpu) {
    if (cpu.id() == 0) {
      cpu.write(arr, 0, 7);
      cpu.write(phase, 0, 1);
      while (cpu.read(phase, 0) < 2) cpu.work(10);
      r.seen_by_0 = cpu.read(arr, 0);
    } else if (cpu.id() == 32) {
      while (cpu.read(phase, 0) < 1) cpu.work(10);
      r.seen_by_32 = cpu.read(arr, 0);
      cpu.write(arr, 0, 9);  // invalidates cell 0's copy cross-domain
      cpu.write(phase, 0, 2);
    }
  });
  r.last = arr.value(0);
  return r;
}

machine::MachineConfig two_domains_64() {
  return machine::MachineConfig::ksr1(64)
      .with_cells_per_domain(32)
      .with_sim_threads(4);
}

TEST(ScaleOut, CrossDomainMigratoryWrites) {
  machine::KsrMachine m(two_domains_64());
  ASSERT_EQ(m.domains(), 2u);
  const Migratory r = migratory_writes(m);
  EXPECT_EQ(r.seen_by_32, 7);
  EXPECT_EQ(r.seen_by_0, 9);
  EXPECT_EQ(r.last, 9);
}

// Mode B decides through the same directory path as mode A, so every
// demand grant record carries the access witness (1 + byte offset) as its
// aux word, home-local and cross-domain alike: the sharing classifier
// reads it to tell false sharing from migratory sharing.
TEST(ScaleOut, CrossDomainDemandGrantsCarryWitness) {
  machine::KsrMachine m(two_domains_64());
  ASSERT_EQ(m.domains(), 2u);
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  EXPECT_EQ(migratory_writes(m).last, 9);
  ASSERT_EQ(tracer.dropped(), 0u);
  unsigned exclusive_grants = 0;
  for (const obs::Tracer::Record& r : tracer) {
    if (r.cat != obs::kCatCoherence || r.ev != obs::kEvGrantExclusive) {
      continue;
    }
    ++exclusive_grants;
    EXPECT_NE(r.aux, 0u) << "exclusive grant of sub-page " << r.subject
                         << " to cell " << r.actor << " at t=" << r.t;
  }
  EXPECT_GE(exclusive_grants, 2u);  // cell 32's two writes at least
}

TEST(ScaleOut, CrossDomainAtomicSerializes) {
  machine::KsrMachine m(two_domains_64());
  ASSERT_EQ(m.domains(), 2u);
  auto lock = m.alloc<int>("lock", 1);
  auto data = m.alloc<int>("data", 64);  // keep data off the lock sub-page
  m.run([&](machine::Cpu& cpu) {
    // Four contenders, two per domain.
    if (cpu.id() != 0 && cpu.id() != 1 && cpu.id() != 32 && cpu.id() != 33) {
      return;
    }
    for (int i = 0; i < 10; ++i) {
      cpu.get_subpage(lock.addr(0));
      const int v = cpu.read(data, 0);
      cpu.work(100);
      cpu.write(data, 0, v + 1);
      cpu.release_subpage(lock.addr(0));
      cpu.work(200);
    }
  });
  EXPECT_EQ(data.value(0), 40);  // no lost updates across the boundary
}

TEST(ScaleOut, CrossDomainPoststoreRefreshesPlaceholders) {
  machine::KsrMachine m(two_domains_64());
  ASSERT_EQ(m.domains(), 2u);
  auto arr = m.alloc<int>("a", 16);
  auto phase = m.alloc<int>("phase", 64);
  int seen = 0;
  m.run([&](machine::Cpu& cpu) {
    if (cpu.id() == 0) {
      while (cpu.read(phase, 0) < 1) cpu.work(10);  // reader has a copy
      cpu.poststore(arr, 0, 42);  // push across the domain boundary
      cpu.work(200000);           // let the refresh land
      cpu.write(phase, 0, 2);
    } else if (cpu.id() == 32) {
      (void)cpu.read(arr, 0);  // placeholder-to-be in domain 1
      cpu.write(phase, 0, 1);
      while (cpu.read(phase, 0) < 2) cpu.work(10);
      seen = cpu.read(arr, 0);
    }
  });
  EXPECT_EQ(seen, 42);
  EXPECT_GE(m.cell_pmon(0).poststores_issued, 1u);
}

TEST(ScaleOut, MultiDomainAuditPasses) {
  machine::KsrMachine m(two_domains_64());
  ASSERT_EQ(m.domains(), 2u);
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  nas::IsConfig cfg;
  cfg.log2_keys = 10;
  cfg.log2_buckets = 7;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  // Per-transition hooks are off mid-run in mode B (cross-thread); the
  // quiescent full audit still checks every directory entry against I1-I6.
  EXPECT_NO_THROW(checker.audit_all());
  m.attach_checker(nullptr);
}

// ------------------- mode B observer lane + topology instrumentation

struct TracedFp {
  Fp fp;
  std::string topo_report;
};

// 128 cells, 4 leaf rings, 4 domains: the mode-B observer lane merges one
// tracer shard per extra domain, and topo_snapshot folds ring / shard /
// boundary-channel / traffic counters from all of them.
TracedFp mode_b_128_traced(unsigned sim_threads) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(128)
                            .with_cells_per_domain(32)
                            .with_sim_threads(sim_threads));
  EXPECT_EQ(m.domains(), 4u);
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  nas::IsConfig cfg;
  cfg.log2_keys = 10;
  cfg.log2_buckets = 7;
  const nas::IsResult r = run_is(m, cfg);
  EXPECT_TRUE(r.ranks_valid);
  std::ostringstream csv;
  tracer.write_csv(csv);
  obs::topo::Snapshot s;
  m.topo_snapshot(s);
  std::ostringstream rep;
  obs::topo::write_report(rep, s);
  return {{m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
           r.seconds, csv.str()},
          rep.str()};
}

TEST(ScaleOut, ModeBTracedRunByteIdenticalAcrossSimThreads) {
  const TracedFp a = mode_b_128_traced(1);
  ASSERT_GT(a.fp.events, 0u);
  ASSERT_FALSE(a.fp.trace_csv.empty());
  // Every instrumented layer reports: rings, directory shards, boundary
  // channels (present because domains > 1) and the traffic matrix.
  EXPECT_NE(a.topo_report.find("## topology"), std::string::npos);
  EXPECT_NE(a.topo_report.find("## rings"), std::string::npos);
  EXPECT_NE(a.topo_report.find("## directory shards"), std::string::npos);
  EXPECT_NE(a.topo_report.find("## boundary channels"), std::string::npos);
  EXPECT_NE(a.topo_report.find("## cross-ring traffic"), std::string::npos);
  // Ring-leg stall attribution covers mode B: every remote acquire here
  // takes a mode-B path, which once logged no inject-wait records at all.
  EXPECT_NE(a.fp.trace_csv.find(",stall,inject-wait,"), std::string::npos);
  for (unsigned t : {2u, 4u}) {
    const TracedFp b = mode_b_128_traced(t);
    EXPECT_EQ(a.fp.events, b.fp.events) << "sim_threads=" << t;
    EXPECT_EQ(a.fp.end_time, b.fp.end_time) << "sim_threads=" << t;
    EXPECT_EQ(a.fp.seconds, b.fp.seconds) << "sim_threads=" << t;
    EXPECT_EQ(a.fp.trace_csv, b.fp.trace_csv) << "sim_threads=" << t;
    EXPECT_EQ(a.topo_report, b.topo_report) << "sim_threads=" << t;
  }
}

// The observer lane is non-perturbing by construction: a traced run must
// produce the same fingerprint as the identical untraced run.
TEST(ScaleOut, ModeBTracingDoesNotPerturbFingerprint) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(128)
                            .with_cells_per_domain(32)
                            .with_sim_threads(4));
  ASSERT_EQ(m.domains(), 4u);
  nas::IsConfig cfg;
  cfg.log2_keys = 10;
  cfg.log2_buckets = 7;
  const nas::IsResult r = run_is(m, cfg);
  ASSERT_TRUE(r.ranks_valid);
  const TracedFp traced = mode_b_128_traced(4);
  EXPECT_EQ(m.parallel_engine().events_dispatched(), traced.fp.events);
  EXPECT_EQ(m.parallel_engine().now(), traced.fp.end_time);
  EXPECT_EQ(r.seconds, traced.fp.seconds);
}

// ------------------------------------------------------- cross-mode oracle

// One registry row at 64 cells (`--scale 64`), run single-domain (mode A,
// cells_per_domain 0) or on two 32-cell domains (mode B).
serve::Json run_row(serve::JobSpec spec, unsigned cells_per_domain) {
  spec.procs = 64;
  spec.scale = 64;
  spec.cells_per_domain = cells_per_domain;
  std::string err;
  serve::Json r = serve::Json::parse(serve::execute(spec).result, &err);
  EXPECT_TRUE(err.empty()) << err;
  return r;
}

double field(const serve::Json& r, const char* key) {
  const serve::Json* v = r.find(key);
  EXPECT_NE(v, nullptr) << key;
  return v != nullptr ? v->as_double() : 0.0;
}

// Mode B must compute what mode A computes. Its simulated time does not yet
// match (ROADMAP item 1: the grant wave costs a quantum and mode B models
// no level-1 ring), so each ceiling pins today's mode-B / mode-A time
// ratio; a change may only lower it.
TEST(ScaleOut, CrossModeOracleIs) {
  serve::JobSpec spec;
  spec.workload = "is";
  spec.log2_keys = 11;
  spec.log2_buckets = 7;
  const serve::Json a = run_row(spec, 0);
  const serve::Json b = run_row(spec, 32);
  EXPECT_TRUE(a.find("ranks_valid")->as_bool());
  EXPECT_TRUE(b.find("ranks_valid")->as_bool());
  const double ratio = field(b, "seconds") / field(a, "seconds");
  EXPECT_LE(ratio, 1.337) << "IS mode-B / mode-A simulated time";  // 1.3366
}

TEST(ScaleOut, CrossModeOracleCg) {
  serve::JobSpec spec;
  spec.workload = "cg";
  spec.n = 600;
  spec.nnz_per_row = 7;
  spec.iters = 2;
  const serve::Json a = run_row(spec, 0);
  const serve::Json b = run_row(spec, 32);
  // Bit-equal: the partition must not change a single floating-point op.
  EXPECT_EQ(field(a, "initial_residual"), field(b, "initial_residual"));
  EXPECT_EQ(field(a, "final_residual"), field(b, "final_residual"));
  const double ratio = field(b, "seconds") / field(a, "seconds");
  EXPECT_LE(ratio, 1.116) << "CG mode-B / mode-A simulated time";  // 1.1155
}

// ---------------------------------------------------------- 1088-cell smoke

void touch_all_cells(machine::KsrMachine& m, unsigned nproc) {
  constexpr std::size_t kStride = 64;  // ints; two sub-pages per cell region
  auto arr = m.alloc<int>("a", nproc * kStride);
  auto shared = m.alloc<int>("s", 16);
  m.run([&](machine::Cpu& cpu) {
    const std::size_t base = cpu.id() * kStride;
    for (std::size_t i = 0; i < 8; ++i) {
      cpu.write(arr, base + i, static_cast<int>(cpu.id() + i));
    }
    (void)cpu.read(shared, 0);  // every cell shares one hot line
    const std::size_t next = ((cpu.id() + 1) % nproc) * kStride;
    (void)cpu.read(arr, next);  // and reads its neighbour's region
  });
  for (unsigned c = 0; c < nproc; ++c) {
    EXPECT_EQ(arr.value(c * kStride), static_cast<int>(c));
  }
}

TEST(ScaleOut, Audit1088CellsSingleDomain) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(1088));
  EXPECT_EQ(m.leaf_count(), 34u);
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  touch_all_cells(m, 1088);
  EXPECT_NO_THROW(checker.audit_all());
  m.attach_checker(nullptr);
}

TEST(ScaleOut, Audit1088CellsMultiDomain) {
  machine::KsrMachine m(machine::MachineConfig::ksr1(1088)
                            .with_cells_per_domain(256)
                            .with_sim_threads(4));
  EXPECT_EQ(m.domains(), 5u);  // ceil(34 leaves / 8 per domain)
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  touch_all_cells(m, 1088);
  EXPECT_NO_THROW(checker.audit_all());
  m.attach_checker(nullptr);
}

}  // namespace
}  // namespace ksr
