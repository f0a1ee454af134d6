// Observability-layer tests: Chrome trace exporter golden output and
// byte-stability, metrics registry aggregation and non-perturbation,
// session merge order, CLI option parsing, and the quantile clamp fix.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/obs/export.hpp"
#include "ksr/obs/metrics.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/serve/json.hpp"
#include "ksr/sim/stats.hpp"
#include "ksr/study/table.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr {
namespace {

using machine::Cpu;
using machine::KsrMachine;
using machine::MachineConfig;

// ---------------------------------------------------------------- exporter

TEST(ChromeTrace, GoldenOutputForHandLoggedRecords) {
  obs::Tracer tracer;
  tracer.log(1500, obs::kCatRing, obs::kEvInject, 7, 0, 3);
  tracer.log(2000, obs::kCatSync, obs::kEvBarrierArrive, 1, 0, 0);
  tracer.log(2500, obs::kCatSync, obs::kEvBarrierDepart, 1, 0, 500);
  std::ostringstream os;
  obs::write_chrome_trace(tracer, os, "golden");
  EXPECT_EQ(
      os.str(),
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"golden\"}},\n"
      "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"sort_index\":0}},\n"
      "{\"ph\":\"M\",\"name\":\"process_labels\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"labels\":\"events=3 dropped=0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"cell 0\"}},\n"
      "{\"ph\":\"i\",\"name\":\"inject\",\"cat\":\"ring\",\"ts\":1.500,"
      "\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"subject\":7,\"detail\":3}},\n"
      "{\"ph\":\"B\",\"name\":\"barrier\",\"cat\":\"sync\",\"ts\":2.000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"subject\":1,\"detail\":0}},\n"
      "{\"ph\":\"E\",\"name\":\"barrier\",\"cat\":\"sync\",\"ts\":2.500,"
      "\"pid\":0,\"tid\":0}\n"
      "],\"displayTimeUnit\":\"ns\"}\n");
}

TEST(ChromeTrace, NormalizesMixedClocksPerTrack) {
  // Sync/stall records carry cpu-local clocks that can run ahead of the
  // global engine clock used by ring/coherence records. In raw log order a
  // track may step backwards in time; the exporter must sort each track so
  // every thread timeline is monotone (without altering any timestamp).
  obs::Tracer tracer;
  tracer.log(9000, obs::kCatSync, obs::kEvBarrierArrive, 1, 0, 0);
  tracer.log(4000, obs::kCatRing, obs::kEvInject, 7, 0, 3);
  tracer.log(9500, obs::kCatSync, obs::kEvBarrierDepart, 1, 0, 500);
  tracer.log(2000, obs::kCatRing, obs::kEvInject, 8, 1, 3, 42);
  std::ostringstream os;
  obs::write_chrome_trace(tracer, os, "mixed");
  const std::string json = os.str();
  // Track 0 replays in timestamp order: inject (4 us) before barrier (9 us).
  const auto inject0 = json.find("\"ts\":4.000");
  const auto arrive0 = json.find("\"ts\":9.000");
  ASSERT_NE(inject0, std::string::npos);
  ASSERT_NE(arrive0, std::string::npos);
  EXPECT_LT(inject0, arrive0);
  // A nonzero aux (coherence witness) survives into the event args.
  EXPECT_NE(json.find("\"aux\":42"), std::string::npos);
  // Drop accounting rides along as process metadata.
  EXPECT_NE(json.find("\"labels\":\"events=4 dropped=0\""),
            std::string::npos);
}

std::string traced_run_json() {
  KsrMachine m(MachineConfig::ksr1(2));
  obs::Tracer tracer;
  m.attach_tracer(&tracer);
  auto arr = m.alloc<int>("a", 256);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
  m.run([&](Cpu& cpu) {
    for (unsigned i = cpu.id(); i < 256; i += cpu.nproc()) cpu.write(arr, i, 1);
    barrier->arrive(cpu);
    for (unsigned i = 0; i < 256; i += 16) (void)cpu.read(arr, i);
    barrier->arrive(cpu);
  });
  std::ostringstream os;
  obs::write_chrome_trace(tracer, os, "run");
  return os.str();
}

TEST(ChromeTrace, ByteStableAcrossIdenticalRuns) {
  const std::string a = traced_run_json();
  const std::string b = traced_run_json();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Well-formed enough for Perfetto: opens with the event array, closes it.
  EXPECT_EQ(a.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(a.find("],\"displayTimeUnit\":\"ns\"}"), std::string::npos);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, AggregateSumsEveryCell) {
  KsrMachine m(MachineConfig::ksr1(4));
  auto arr = m.alloc<int>("a", 1024);
  m.run([&](Cpu& cpu) {
    for (unsigned i = cpu.id(); i < 1024; i += cpu.nproc()) cpu.write(arr, i, 1);
  });
  cache::PerfMonitor manual;
  for (unsigned i = 0; i < m.nproc(); ++i) manual.add(m.cell_pmon(i));
  const cache::PerfMonitor agg = m.total_pmon();
  EXPECT_EQ(agg.ring_requests, manual.ring_requests);
  EXPECT_EQ(agg.localcache_misses, manual.localcache_misses);
  EXPECT_EQ(agg.invalidations_received, manual.invalidations_received);
}

TEST(Metrics, SamplesOnSimulatedClockWithoutPerturbing) {
  auto run_once = [](obs::MetricsRegistry* reg) {
    KsrMachine m(MachineConfig::ksr1(2));
    if (reg) reg->attach(m, 50'000);
    auto arr = m.alloc<int>("a", 4096);
    m.run([&](Cpu& cpu) {
      for (unsigned i = cpu.id(); i < 4096; i += cpu.nproc()) {
        cpu.write(arr, i, 1);
        cpu.work(100);
      }
    });
    if (reg) reg->finish();
    return m.parallel_engine().events_dispatched();
  };
  const std::uint64_t bare = run_once(nullptr);
  obs::MetricsRegistry reg;
  const std::uint64_t sampled = run_once(&reg);
  EXPECT_EQ(bare, sampled);  // observers never count as dispatched events
  ASSERT_GE(reg.samples().size(), 2u);
  for (std::size_t i = 1; i < reg.samples().size(); ++i) {
    EXPECT_GT(reg.samples()[i].t, reg.samples()[i - 1].t);
    EXPECT_GE(reg.samples()[i].pmon.ring_requests,
              reg.samples()[i - 1].pmon.ring_requests);
  }
  std::ostringstream os;
  reg.write_csv(os, "jobX");
  EXPECT_EQ(os.str().rfind("job,time_ns,slot_util", 0), 0u);
  EXPECT_NE(os.str().find("\njobX,"), std::string::npos);
}

// ----------------------------------------------------------------- session

TEST(Session, MergesJobsInSubmissionOrder) {
  const std::string path = testing::TempDir() + "ksr_session_trace.json";
  obs::SessionOptions so;
  so.trace = true;
  so.trace_out = path;
  {
    obs::Session session(so, "test");
    ASSERT_TRUE(session.active());
    for (const char* label : {"job-a", "job-b"}) {
      KsrMachine m(MachineConfig::ksr1(2));
      obs::JobObs jo = session.job();
      jo.attach(m);
      auto arr = m.alloc<int>("a", 64);
      m.run([&](Cpu& cpu) {
        for (unsigned i = cpu.id(); i < 64; i += cpu.nproc()) cpu.write(arr, i, 1);
      });
      jo.finish();
      session.collect(std::move(jo), label);
    }
    session.close();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const auto a = json.find("\"name\":\"job-a\"");
  const auto b = json.find("\"name\":\"job-b\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("],\"displayTimeUnit\":\"ns\"}"), std::string::npos);
  // The merged file loads as one JSON document with a non-empty event list.
  std::string err;
  const serve::Json doc = serve::Json::parse(json, &err);
  ASSERT_TRUE(err.empty()) << err;
  const serve::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_FALSE(events->items().empty());
  std::remove(path.c_str());
}

TEST(Session, ReportSectionsFollowSubmissionOrderAndCsvCarriesRegions) {
  const std::string csv_path = testing::TempDir() + "ksr_session_trace.csv";
  const std::string rep_path = testing::TempDir() + "ksr_session_report.txt";
  obs::SessionOptions so;
  so.trace = true;
  so.trace_out = csv_path;
  so.report = rep_path;
  {
    obs::Session session(so, "test");
    ASSERT_TRUE(session.active());
    for (const char* label : {"first", "second"}) {
      KsrMachine m(MachineConfig::ksr1(2));
      obs::JobObs jo = session.job();
      jo.attach(m);
      auto arr = m.alloc<int>("named.region", 64);
      auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
      m.run([&](Cpu& cpu) {
        for (unsigned i = cpu.id(); i < 64; i += cpu.nproc()) {
          cpu.write(arr, i, 1);
        }
        barrier->arrive(cpu);
      });
      jo.finish();
      session.collect(std::move(jo), label);
    }
    session.close();
  }
  std::ifstream rin(rep_path);
  ASSERT_TRUE(rin.good());
  std::stringstream rss;
  rss << rin.rdbuf();
  const std::string report = rss.str();
  const auto a = report.find("=== job first ===");
  const auto b = report.find("=== job second ===");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(report.find("## sharing"), std::string::npos);
  EXPECT_NE(report.find("## barriers"), std::string::npos);

  std::ifstream cin_(csv_path);
  ASSERT_TRUE(cin_.good());
  std::stringstream css;
  css << cin_.rdbuf();
  const std::string csv = css.str();
  EXPECT_EQ(csv.rfind("job,time_ns,category,event,subject,actor,detail,aux", 0),
            0u);
  EXPECT_NE(csv.find("name=named.region"), std::string::npos);
  EXPECT_NE(csv.find("# region job=first "), std::string::npos);
  EXPECT_NE(csv.find("# region job=second "), std::string::npos);
  std::remove(csv_path.c_str());
  std::remove(rep_path.c_str());
}

TEST(Session, InactiveSessionIsFreeAndInert) {
  obs::Session session(obs::SessionOptions{}, "idle");
  EXPECT_FALSE(session.active());
  KsrMachine m(MachineConfig::ksr1(2));
  obs::JobObs jo = session.job();
  jo.attach(m);  // no tracer, no metrics: must be a no-op
  EXPECT_EQ(m.tracer(), nullptr);
  jo.finish();
}

// ------------------------------------------------------------- CLI options

TEST(BenchOptions, ParsesObservabilityFlags) {
  const char* argv[] = {"bench", "--quick", "--trace=ring,sync",
                        "--trace-out=/tmp/t.json", "--metrics-csv",
                        "/tmp/m.csv", "--jobs=4"};
  const study::BenchOptions o =
      study::BenchOptions::parse(7, const_cast<char**>(argv));
  EXPECT_TRUE(o.quick);
  EXPECT_TRUE(o.obs.trace);
  EXPECT_EQ(o.obs.categories, "ring,sync");
  EXPECT_EQ(o.obs.trace_out, "/tmp/t.json");
  EXPECT_EQ(o.obs.metrics_csv, "/tmp/m.csv");
  EXPECT_EQ(o.jobs, 4u);
}

TEST(BenchOptions, ParsesReportAndTraceCap) {
  const char* argv[] = {"bench", "--report=/tmp/r.txt", "--trace-cap", "4096"};
  const study::BenchOptions o =
      study::BenchOptions::parse(4, const_cast<char**>(argv));
  EXPECT_EQ(o.obs.report, "/tmp/r.txt");
  EXPECT_EQ(o.obs.trace_capacity, 4096u);
  // --report alone does not force trace *output*; the session captures
  // records internally and only writes the profile report.
  EXPECT_FALSE(o.obs.trace);
}

TEST(BenchOptions, RejectsZeroOrGarbageTraceCap) {
  const char* argv[] = {"bench", "--trace-cap=0", "--trace-cap=banana"};
  testing::internal::CaptureStderr();
  const study::BenchOptions o =
      study::BenchOptions::parse(3, const_cast<char**>(argv));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.obs.trace_capacity,  // both rejected, default kept
            obs::SessionOptions{}.trace_capacity);
  EXPECT_NE(err.find("--trace-cap"), std::string::npos);
}

TEST(BenchOptions, TraceOutImpliesTracing) {
  const char* argv[] = {"bench", "--trace-out=/tmp/t.json"};
  const study::BenchOptions o =
      study::BenchOptions::parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(o.obs.trace);
  EXPECT_TRUE(o.obs.categories.empty());
}

TEST(BenchOptions, UnknownArgumentsWarnButDoNotAbort) {
  const char* argv[] = {"bench", "--definitely-not-a-flag", "--csv"};
  testing::internal::CaptureStderr();
  const study::BenchOptions o =
      study::BenchOptions::parse(3, const_cast<char**>(argv));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(o.csv);  // later flags still parse
  EXPECT_NE(err.find("ignoring unknown argument"), std::string::npos);
  EXPECT_NE(err.find("--definitely-not-a-flag"), std::string::npos);
}

// -------------------------------------------------------- quantile clamping

TEST(Samples, QuantileClampsOutOfRangeArguments) {
  sim::Samples s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
  // The fix: out-of-range q used to index with a negative (UB) or
  // past-the-end position; now it clamps to the extremes.
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(2.0), 3.0);
}

// ------------------------------------------------------------- determinism

TEST(Determinism, FingerprintIdenticalTracedAndUntraced) {
  auto fingerprint = [](bool traced, bool metrics) {
    KsrMachine m(MachineConfig::ksr1(4));
    obs::Tracer tracer;
    obs::MetricsRegistry reg;
    if (traced) m.attach_tracer(&tracer);
    if (metrics) reg.attach(m);
    auto arr = m.alloc<int>("a", 2048);
    auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
    m.run([&](Cpu& cpu) {
      for (int e = 0; e < 3; ++e) {
        for (unsigned i = cpu.id(); i < 2048; i += cpu.nproc()) {
          cpu.write(arr, i, e);
        }
        barrier->arrive(cpu);
      }
    });
    if (metrics) reg.finish();
    return m.parallel_engine().events_dispatched();
  };
  const std::uint64_t bare = fingerprint(false, false);
  EXPECT_EQ(bare, fingerprint(true, false));
  EXPECT_EQ(bare, fingerprint(false, true));
  EXPECT_EQ(bare, fingerprint(true, true));
}

}  // namespace
}  // namespace ksr
