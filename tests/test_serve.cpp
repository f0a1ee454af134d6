// ksr::serve (docs/SERVING.md) — the simulation-as-a-service layer.
//
// The contracts under test:
//   * the content-addressed result cache returns byte-identical results for
//     repeated submissions, in-process and across a "restart" (a fresh
//     ServeCore over the same store directory);
//   * the cache key is sensitive to every job-spec field, the seed, the
//     checkpoint preset's *contents*, and the build's code-version stamp;
//   * concurrent submissions of the same spec dedup to exactly ONE
//     execution, all callers receiving the same bytes;
//   * corrupt or mismatched store files degrade to a miss (and re-execute),
//     never to a wrong result served as a hit, and failures are never
//     cached;
//   * the AF_UNIX daemon round-trips jobs from parallel clients with the
//     same bytes a serial in-process run produces;
//   * a campaign killed halfway resumes from the cache, and its result
//     database is byte-identical between a cold and a resumed run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/coherent_machine.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/nas/bt.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/nas/ep.hpp"
#include "ksr/nas/ft.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/nas/lu.hpp"
#include "ksr/nas/mg.hpp"
#include "ksr/nas/sp.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/serve/campaign.hpp"
#include "ksr/serve/core.hpp"
#include "ksr/serve/server.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr::serve {
namespace {

// Small-but-real jobs: scaled machines, tiny problem sizes, ~ms each.
JobSpec small_is(unsigned procs = 2) {
  JobSpec s;
  s.workload = "is";
  s.procs = procs;
  s.scale = 64;
  s.log2_keys = 10;
  s.log2_buckets = 6;
  return s;
}

JobSpec small_cg(unsigned procs = 2) {
  JobSpec s;
  s.workload = "cg";
  s.procs = procs;
  s.scale = 64;
  s.n = 120;
  s.nnz_per_row = 6;
  s.iters = 1;
  return s;
}

// Unique per run: a stale store directory from a previous test invocation
// would turn the cold-miss assertions below into hits.
// A fresh directory per test: a leftover from an earlier process that had
// the same pid would otherwise pre-seed the store with cache hits.
std::string temp_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "ksr_serve_" +
                          std::to_string(::getpid()) + "_" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------- JSON layer

TEST(ServeJson, ParsesAndDumpsStably) {
  std::string err;
  const Json j = Json::parse(
      R"({"name":"x","n":18446744073709551615,"neg":-3,"f":0.5,)"
      R"("arr":[1,true,null,"s"],"obj":{"k":"v"}})",
      &err);
  ASSERT_TRUE(err.empty()) << err;
  const std::string once = j.dump();
  const Json back = Json::parse(once, &err);
  ASSERT_TRUE(err.empty()) << err;
  // Insertion-ordered objects: dump is a fixed point after one round trip.
  EXPECT_EQ(back.dump(), once);
  // 64-bit integers survive exactly (no double rounding).
  std::uint64_t big = 0;
  ASSERT_NE(back.find("n"), nullptr);
  ASSERT_TRUE(back.find("n")->as_u64(&big));
  EXPECT_EQ(big, 18446744073709551615ull);
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"k\":}", "tru", "\"unterminated", "{\"a\":1,}",
        "01", "1e", "{\"k\" 1}", "[1 2]"}) {
    std::string err;
    (void)Json::parse(bad, &err);
    EXPECT_FALSE(err.empty()) << "accepted: '" << bad << "'";
  }
}

// ------------------------------------------------------ one run path

/// A small spec for registry entry `w` (sizes picked per workload).
JobSpec small_job(const std::string& w) {
  if (w == "is") return small_is();
  if (w == "cg") return small_cg();
  JobSpec s;
  s.workload = w;
  s.procs = 2;
  s.scale = 64;
  if (w == "ep") {
    s.log2_pairs = 9;
  } else if (w == "lock" || w == "barrier") {
    s.iters = 3;
  } else if (w == "mg" || w == "ft") {
    s.n = 8;
    s.iters = 1;
  } else if (w != "probe") {  // sp, bt, lu
    s.n = w == "sp" ? 8 : 6;
    s.iters = 1;
  }
  return s;
}

TEST(ServeRegistry, RunWorkloadWithObserversMatchesExecuteForEveryEntry) {
  ASSERT_EQ(workloads().size(), 11u);
  for (const Workload& w : workloads()) {
    const JobSpec spec = small_job(w.name);
    ASSERT_TRUE(spec.validate().empty()) << w.name << ": " << spec.validate();
    auto m = machine::make_machine(spec.machine_config(1));
    auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
    check::InvariantChecker checker(cm);
    cm.attach_checker(&checker);
    obs::Tracer tracer;
    m->attach_tracer(&tracer);
    const JobOutcome local = run_workload(spec, *m);
    checker.audit_all();
    EXPECT_GT(tracer.size(), 0u) << w.name;
    // Tracer and checker never perturb the run: `ksrsim kernel` bytes (this
    // path) equal the served job's bytes.
    const JobOutcome served = execute(spec);
    EXPECT_EQ(local.result, served.result) << w.name;
    EXPECT_EQ(local.events, served.events) << w.name;
  }
}

TEST(ServeRegistry, UnknownNamesListTheTable) {
  JobSpec s = small_is();
  s.machine = "ksr9";
  EXPECT_NE(s.validate().find("(expected ksr1|ksr2|symmetry|butterfly)"),
            std::string::npos);
  EXPECT_THROW((void)s.machine_config(1), std::invalid_argument);
  s = small_is();
  s.workload = "hpl";
  EXPECT_NE(s.validate().find(
                "(expected ep|cg|is|sp|bt|mg|ft|lu|probe|lock|barrier)"),
            std::string::npos);
}

// The mg/ft/lu rows and every NAS kind variant are exactly the direct
// kernel call with the matching hand-built config on the same machine:
// the registry maps a spec to a config and adds no simulation of its own.
TEST(ServeRegistry, NasRowsAndKindsMatchDirectKernelCalls) {
  using Direct = double (*)(machine::Machine&, const JobSpec&);
  struct Case {
    const char* workload;
    const char* kind;
    Direct direct;
  };
  const Case cases[] = {
      {"mg", "",
       [](machine::Machine& m, const JobSpec& s) {
         nas::MgConfig c;
         c.log2_n = 3;  // n = 8
         c.v_cycles = s.iters;
         return nas::run_mg(m, c).seconds;
       }},
      {"ft", "",
       [](machine::Machine& m, const JobSpec& s) {
         nas::FtConfig c;
         c.log2_n = 3;
         c.iterations = s.iters;
         return nas::run_ft(m, c).seconds;
       }},
      {"lu", "",
       [](machine::Machine& m, const JobSpec& s) {
         nas::LuConfig c;
         c.n = s.n;
         c.iterations = s.iters;
         return nas::run_lu(m, c).total_seconds;
       }},
      {"lu", "no-poststore",
       [](machine::Machine& m, const JobSpec& s) {
         nas::LuConfig c;
         c.n = s.n;
         c.iterations = s.iters;
         c.use_poststore = false;
         return nas::run_lu(m, c).total_seconds;
       }},
      {"is", "no-prefetch",
       [](machine::Machine& m, const JobSpec& s) {
         nas::IsConfig c;
         c.log2_keys = s.log2_keys;
         c.log2_buckets = s.log2_buckets;
         c.use_prefetch = false;
         return nas::run_is(m, c).seconds;
       }},
      {"cg", "poststore",
       [](machine::Machine& m, const JobSpec& s) {
         nas::CgConfig c;
         c.n = s.n;
         c.nnz_per_row = s.nnz_per_row;
         c.iterations = s.iters;
         c.use_poststore = true;
         return nas::run_cg(m, c).seconds;
       }},
      {"cg", "no-prefetch",
       [](machine::Machine& m, const JobSpec& s) {
         nas::CgConfig c;
         c.n = s.n;
         c.nnz_per_row = s.nnz_per_row;
         c.iterations = s.iters;
         c.use_prefetch = false;
         return nas::run_cg(m, c).seconds;
       }},
      {"cg", "column-major",
       [](machine::Machine& m, const JobSpec& s) {
         nas::CgConfig c;
         c.n = s.n;
         c.nnz_per_row = s.nnz_per_row;
         c.iterations = s.iters;
         c.format = nas::SparseFormat::kColumnMajor;
         return nas::run_cg(m, c).seconds;
       }},
      {"sp", "padded",
       [](machine::Machine& m, const JobSpec& s) {
         nas::SpConfig c;
         c.n = s.n;
         c.iterations = s.iters;
         c.padded_layout = true;
         return nas::run_sp(m, c).total_seconds;
       }},
      {"sp", "padded-prefetch",
       [](machine::Machine& m, const JobSpec& s) {
         nas::SpConfig c;
         c.n = s.n;
         c.iterations = s.iters;
         c.padded_layout = true;
         c.use_prefetch = true;
         return nas::run_sp(m, c).total_seconds;
       }},
      {"sp", "padded-prefetch-poststore",
       [](machine::Machine& m, const JobSpec& s) {
         nas::SpConfig c;
         c.n = s.n;
         c.iterations = s.iters;
         c.padded_layout = true;
         c.use_prefetch = true;
         c.use_poststore = true;
         return nas::run_sp(m, c).total_seconds;
       }},
      {"bt", "prefetch",
       [](machine::Machine& m, const JobSpec& s) {
         nas::BtConfig c;
         c.n = s.n;
         c.iterations = s.iters;
         c.use_prefetch = true;
         return nas::run_bt(m, c).total_seconds;
       }},
  };
  for (const Case& c : cases) {
    JobSpec s = small_job(c.workload);
    s.kind = c.kind;
    const std::string name = s.workload + "/" + s.kind;
    ASSERT_EQ(s.validate(), "") << name;
    auto served = machine::make_machine(s.machine_config(1));
    std::string err;
    const Json r = Json::parse(run_workload(s, *served).result, &err);
    ASSERT_TRUE(err.empty()) << err;
    auto direct = machine::make_machine(s.machine_config(1));
    const double seconds = c.direct(*direct, s);
    EXPECT_EQ(r.find("seconds")->as_double(), seconds) << name;
    EXPECT_EQ(served->parallel_engine().events_dispatched(),
              direct->parallel_engine().events_dispatched())
        << name;
  }
}

TEST(ServeRegistry, BadNasKindsAndSizesListTheSpellings) {
  const std::pair<const char*, const char*> bad_kinds[] = {
      {"is", "(empty for the default, or no-prefetch)"},
      {"cg", "(empty for the default, or poststore|no-prefetch|column-major)"},
      {"sp",
       "(empty for the default, or padded|padded-prefetch|"
       "padded-prefetch-poststore)"},
      {"bt", "(empty for the default, or prefetch)"},
      {"lu", "(empty for the default, or no-poststore)"},
  };
  for (const auto& [workload, spellings] : bad_kinds) {
    JobSpec s = small_job(workload);
    s.kind = "bogus";
    EXPECT_EQ(s.validate(), std::string("unknown ") + workload +
                                " kind 'bogus' " + spellings);
  }
  for (const char* workload : {"ep", "mg", "ft"}) {
    JobSpec s = small_job(workload);
    s.kind = "bogus";
    EXPECT_EQ(s.validate(), std::string(workload) + " takes no kind (got "
                                                     "'bogus')");
  }
  for (const char* workload : {"mg", "ft"}) {
    JobSpec s = small_job(workload);
    for (unsigned n : {1u, 12u}) {
      s.n = n;
      EXPECT_NE(s.validate().find("must be a power of two >= 2 (got " +
                                  std::to_string(n) + ")"),
                std::string::npos)
          << s.validate();
    }
  }
}

// Every NAS row at the smallest sizes (the `ksrsim kernel --name W --n N
// --procs P --scale 64` commands) either fails validate() with a diagnostic
// or runs to a result of finite numbers: no crash, abort or NaN.
TEST(ServeRegistry, NasRowsAtTinySizesFailValidationOrStayFinite) {
  for (const char* workload :
       {"ep", "cg", "is", "sp", "bt", "mg", "ft", "lu"}) {
    for (unsigned n : {1u, 2u, 3u}) {
      for (unsigned procs : {1u, 4u, 16u}) {
        JobSpec s;
        s.workload = workload;
        s.n = n;
        s.procs = procs;
        s.scale = 64;
        const std::string at = std::string(workload) + " n=" +
                               std::to_string(n) + " p=" +
                               std::to_string(procs);
        if (!s.validate().empty()) continue;  // a diagnostic, nothing run
        std::string result;
        ASSERT_NO_THROW(result = execute(s).result) << at;
        std::string err;
        (void)Json::parse(result, &err);
        EXPECT_TRUE(err.empty()) << at << ": " << err;
      }
    }
  }
  JobSpec sp = small_job("sp");
  sp.n = 1;
  EXPECT_EQ(sp.validate(), "sp needs n >= 2 (got 1)");
  // CG solves these systems exactly before its last iteration, and then
  // reports residual 0 instead of dividing 0 by 0.
  for (unsigned n : {1u, 2u, 3u}) {
    for (unsigned nnz_per_row : {1u, 2u, 4u}) {
      JobSpec cg = small_cg(1);
      cg.n = n;
      cg.nnz_per_row = nnz_per_row;
      cg.iters = 30;
      ASSERT_TRUE(cg.validate().empty()) << cg.validate();
      std::string err;
      const Json r = Json::parse(execute(cg).result, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_EQ(r.find("final_residual")->as_double(), 0.0)
          << "n=" << n << " nnz_per_row=" << nnz_per_row;
    }
  }
}

// A result holding a non-finite number fails the job with a diagnostic
// naming the field: its bytes, which are not JSON, are never returned or
// stored.
TEST(ServeRegistry, NonFiniteResultFailsTheJobAndIsNeverStored) {
  JobSpec s;  // BT's solution diverges past about 13 steps at this size
  s.workload = "bt";
  s.procs = 1;
  s.scale = 64;
  s.n = 4;
  s.iters = 20;
  ASSERT_TRUE(s.validate().empty()) << s.validate();
  const std::string diagnostic = "bt: result field 'checksum' is ";
  try {
    (void)execute(s);
    ADD_FAILURE() << "a NaN checksum ran to a result";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find(diagnostic), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find("not a finite number"),
              std::string::npos);
  }
  ServeCore::Options opt;  // memory-only store
  opt.jobs = 1;
  ServeCore core(opt);
  const ServeCore::Response r = core.submit(s);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(diagnostic), std::string::npos) << r.error;
  EXPECT_EQ(core.counters().cache.stores, 0u);
  EXPECT_FALSE(core.submit(s).cached);
}

// Every bad input is a diagnostic before any simulation, and a bad spec
// submitted to the core is an error response that is never stored.
TEST(ServeRegistry, BadSyncInputsAreRejectedBeforeRunning) {
  auto spec = [](const char* workload, const char* kind, unsigned procs) {
    JobSpec s;
    s.workload = workload;
    s.kind = kind;
    s.procs = procs;
    return s;
  };
  JobSpec rw = spec("lock", "rw", 4);
  rw.read_pct = 150;
  const std::vector<std::pair<JobSpec, std::string>> bad = {
      {rw, "read_pct must be <= 100"},
      {spec("lock", "bogus", 4),
       "unknown lock kind 'bogus' "
       "(hw|rw|tas|tas-backoff|ticket|anderson|mcs-queue)"},
      {spec("barrier", "bogus", 4), "unknown barrier kind 'bogus' (system|"},
      {spec("probe", "", 1), "probe needs procs >= 2"},
  };
  ServeCore::Options opt;  // memory-only store
  opt.jobs = 1;
  ServeCore core(opt);
  for (const auto& [s, diagnostic] : bad) {
    EXPECT_NE(s.validate().find(diagnostic), std::string::npos)
        << s.validate();
    const ServeCore::Response r = core.submit(s);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find(diagnostic), std::string::npos) << r.error;
  }
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.failures, bad.size());
  EXPECT_EQ(c.cache.stores, 0u);
  EXPECT_EQ(c.executed, 0u);

  // iters 0 is the registry default (25 episodes, 50 lock operations), not
  // a division by zero.
  for (const auto& [workload, iters] :
       {std::pair<const char*, unsigned>{"barrier", 25}, {"lock", 50}}) {
    JobSpec zero = spec(workload, "", 2);
    JobSpec explicit_default = zero;
    explicit_default.iters = iters;
    EXPECT_EQ(execute(zero).result, execute(explicit_default).result)
        << workload;
  }
}

double seconds_of(const JobSpec& spec) {
  std::string err;
  const Json r = Json::parse(execute(spec).result, &err);
  EXPECT_TRUE(err.empty()) << err;
  return r.find("seconds")->as_double();
}

std::string cell(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// The lock row is Fig. 3's workload: its quick table's cells at 25
// operations per cell.
TEST(ServeRegistry, LockRowGivesFig3Cells) {
  JobSpec rw;
  rw.workload = "lock";
  rw.kind = "rw";
  rw.read_pct = 40;
  rw.procs = 4;
  rw.iters = 25;
  EXPECT_EQ(cell(seconds_of(rw), 4), "0.0341");
  JobSpec hw;
  hw.workload = "lock";
  hw.kind = "hw";
  hw.procs = 8;
  hw.iters = 25;
  EXPECT_EQ(cell(seconds_of(hw), 4), "0.0670");
}

// The barrier row is Fig. 4's episode loop: its tournament(M) cell at the
// quick table's 16 cells and 5 episodes.
TEST(ServeRegistry, BarrierRowGivesFig4Cell) {
  JobSpec spec;
  spec.workload = "barrier";
  spec.kind = "tournament-m";
  spec.procs = 16;
  spec.iters = 5;
  const double row = seconds_of(spec);
  auto m = machine::make_machine(machine::MachineConfig::ksr1(16));
  EXPECT_EQ(row, sync::barrier_episode_seconds(
                     *m, sync::BarrierKind::kTournamentM, 5));
  EXPECT_EQ(cell(row * 1e6, 1), "82.5");
  // Its machine-wide counters are the machine's pmon totals after the run.
  std::string err;
  const Json r = Json::parse(execute(spec).result, &err);
  ASSERT_TRUE(err.empty()) << err;
  const cache::PerfMonitor pmon = m->total_pmon();
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"ring_requests", pmon.ring_requests},
      {"ring_nacks", pmon.ring_nacks},
      {"invalidations_received", pmon.invalidations_received},
      {"snarfs", pmon.snarfs},
      {"poststores_issued", pmon.poststores_issued}};
  for (const auto& [field, want] : counters) {
    std::uint64_t got = 0;
    ASSERT_NE(r.find(field), nullptr) << field;
    ASSERT_TRUE(r.find(field)->as_u64(&got)) << field;
    EXPECT_EQ(got, want) << field;
  }
}

// The ep row reports the annulus counts Section 3.3's bench checks against
// the serial host reference.
TEST(ServeRegistry, EpRowReportsTheReferenceAnnulusCounts) {
  const JobSpec spec = small_job("ep");
  std::string err;
  const Json r = Json::parse(execute(spec).result, &err);
  ASSERT_TRUE(err.empty()) << err;
  nas::EpConfig cfg;
  cfg.log2_pairs = spec.log2_pairs;
  const nas::EpResult ref = nas::ep_reference(cfg);
  ASSERT_NE(r.find("annulus_counts"), nullptr);
  const std::vector<Json>& counts = r.find("annulus_counts")->items();
  ASSERT_EQ(counts.size(), ref.annulus_counts.size());
  for (std::size_t k = 0; k < counts.size(); ++k) {
    std::uint64_t c = 0;
    EXPECT_TRUE(counts[k].as_u64(&c));
    EXPECT_EQ(c, ref.annulus_counts[k]) << "annulus " << k;
  }
}

TEST(ServeFingerprint, ModeBJobCountsEveryDomain) {
  JobSpec spec;
  spec.workload = "is";
  spec.procs = 64;
  spec.scale = 64;
  spec.cells_per_domain = 32;
  spec.log2_keys = 11;
  spec.log2_buckets = 7;
  auto m = machine::make_machine(spec.machine_config(1));
  ASSERT_EQ(m->domains(), 2u);
  const JobOutcome out = run_workload(spec, *m);
  EXPECT_EQ(out.events, m->parallel_engine().events_dispatched());
  EXPECT_GT(out.events, m->engine_of(0).events_dispatched());
  std::string err;
  const Json r = Json::parse(out.result, &err);
  ASSERT_TRUE(err.empty()) << err;
  std::uint64_t reported = 0;
  ASSERT_TRUE(r.find("events_dispatched")->as_u64(&reported));
  EXPECT_EQ(reported, out.events);
  EXPECT_TRUE(r.find("ranks_valid")->as_bool());
  EXPECT_EQ(execute(spec).result, out.result);
}

// ------------------------------------------------------------ cache keys

TEST(ServeKey, SensitiveToEveryFieldAndVersionStamp) {
  const JobSpec base = small_is();
  const std::uint64_t k0 = derive_key(base).value;

  using Mut = void (*)(JobSpec*);
  const std::vector<std::pair<const char*, Mut>> mutations = {
      {"machine", [](JobSpec* s) { s->machine = "ksr2"; }},
      {"procs", [](JobSpec* s) { s->procs = 4; }},
      {"scale", [](JobSpec* s) { s->scale = 32; }},
      {"snarf", [](JobSpec* s) { s->snarf = false; }},
      {"fuzz_seed", [](JobSpec* s) { s->fuzz_seed = 7; }},
      {"cells_per_leaf", [](JobSpec* s) { s->cells_per_leaf = 2; }},
      {"cells_per_domain", [](JobSpec* s) { s->cells_per_domain = 2; }},
      {"workload", [](JobSpec* s) { s->workload = "cg"; }},
      {"seed", [](JobSpec* s) { s->seed = 99; }},
      {"log2_keys", [](JobSpec* s) { s->log2_keys = 11; }},
      {"log2_buckets", [](JobSpec* s) { s->log2_buckets = 7; }},
      {"pad_buckets", [](JobSpec* s) { s->pad_buckets = true; }},
      {"n", [](JobSpec* s) { s->n = 64; }},
      {"nnz_per_row", [](JobSpec* s) { s->nnz_per_row = 5; }},
      {"iters", [](JobSpec* s) { s->iters = 3; }},
      {"log2_pairs", [](JobSpec* s) { s->log2_pairs = 9; }},
      {"kind", [](JobSpec* s) { s->kind = "rw"; }},
      {"read_pct", [](JobSpec* s) { s->read_pct = 40; }},
  };
  std::set<std::uint64_t> keys{k0};
  for (const auto& [name, mutate] : mutations) {
    JobSpec s = base;
    mutate(&s);
    const std::uint64_t k = derive_key(s).value;
    EXPECT_NE(k, k0) << "field '" << name << "' not keyed";
    keys.insert(k);
  }
  // All mutations landed on distinct keys (no accidental aliasing).
  EXPECT_EQ(keys.size(), mutations.size() + 1);

  // A code-version bump (simulated-semantics change) invalidates every key.
  EXPECT_NE(derive_key(base, kCodeVersion + 1).value, k0);
}

// One spec with every field off its default (restore_from aside where the
// key would read the preset file).
JobSpec every_field_set() {
  JobSpec s;
  s.machine = "ksr2";
  s.procs = 16;
  s.scale = 4;
  s.snarf = false;
  s.fuzz_seed = 1099511627776ull;  // > 2^32: a u64 field
  s.cells_per_leaf = 8;
  s.cells_per_domain = 16;
  s.workload = "is";
  s.seed = 5000000000ull;
  s.log2_keys = 12;
  s.log2_buckets = 8;
  s.pad_buckets = true;
  s.n = 300;
  s.nnz_per_row = 7;
  s.iters = 3;
  s.log2_pairs = 11;
  return s;
}

TEST(ServeKey, CanonicalStringAndKeyArePinned) {
  // The bytes every store file was keyed under: the field table must
  // reproduce them exactly, or every cached result silently misses. The
  // key values also hash kCodeVersion, so they move when it is bumped
  // (4: the ep and barrier rows report more fields); the canonical strings
  // never do.
  const JobSpec s = every_field_set();
  EXPECT_EQ(s.canonical(),
            "machine=ksr2;procs=16;scale=4;snarf=0;fuzz_seed=1099511627776;"
            "cells_per_leaf=8;cells_per_domain=16;workload=is;"
            "seed=5000000000;log2_keys=12;log2_buckets=8;pad_buckets=1;"
            "n=300;nnz_per_row=7;iters=3;log2_pairs=11;ckpt=-;");
  EXPECT_EQ(derive_key(s).hex(), "517b7aa0a33a4f8d");
  EXPECT_EQ(JobSpec{}.canonical(),
            "machine=ksr1;procs=8;scale=1;snarf=1;fuzz_seed=0;"
            "cells_per_leaf=0;cells_per_domain=0;workload=cg;seed=0;"
            "log2_keys=0;log2_buckets=0;pad_buckets=0;n=0;nnz_per_row=0;"
            "iters=0;log2_pairs=0;ckpt=-;");
  EXPECT_EQ(derive_key(JobSpec{}).hex(), "341e782f0518f241");
}

TEST(ServeSpec, JsonRoundTripsEveryField) {
  JobSpec s = every_field_set();
  s.restore_from = "preset.ckpt";
  JobSpec back;
  std::string err;
  ASSERT_TRUE(JobSpec::from_json(s.to_json(), &back, &err)) << err;
  EXPECT_EQ(back, s);
  // Type errors name the field and its kind.
  Json j = s.to_json();
  j.set("procs", Json::uint(1ull << 33));
  EXPECT_FALSE(JobSpec::from_json(j, &back, &err));
  EXPECT_EQ(err, "field 'procs' must be a 32-bit non-negative integer");
  j = s.to_json();
  j.set("snarf", Json::uint(1));
  EXPECT_FALSE(JobSpec::from_json(j, &back, &err));
  EXPECT_EQ(err, "field 'snarf' must be a boolean");
}

TEST(ServeSpec, FlagsReachEveryJsonField) {
  // ksrsim's spellings of all 19 fields -> JobSpec -> to_json().
  const char* argv[] = {
      "ksrsim",          "--machine",      "ksr2",   "--procs",
      "16",              "--scale=4",      "--no-snarf",
      "--fuzz-seed",     "1099511627776",  "--cells-per-leaf",
      "8",               "--cells-per-domain=16", "--name",
      "is",              "--seed",         "5000000000",
      "--log2-keys",     "12",             "--log2-buckets",
      "8",               "--pad-buckets",  "--n",
      "300",             "--nnz-per-row",  "7",
      "--iters",         "3",              "--log2-pairs",
      "11",              "--restore-from", "preset.ckpt",
      "--kind",          "rw",             "--read-pct",
      "40"};
  JobSpec s;
  ASSERT_TRUE(util::parse_flags(static_cast<int>(std::size(argv)),
                                const_cast<char**>(argv), 1, s.flags()));
  JobSpec want = every_field_set();
  want.restore_from = "preset.ckpt";
  want.kind = "rw";
  want.read_pct = 40;
  EXPECT_EQ(s, want);
  const Json j = s.to_json();
  const Json defaults = JobSpec{}.to_json();
  ASSERT_EQ(j.members().size(), 19u);
  ASSERT_EQ(s.flags().size(), 19u);
  // The two appended fields are left out at their defaults.
  ASSERT_EQ(defaults.members().size(), 17u);
  for (const auto& [key, value] : j.members()) {
    const Json* d = defaults.find(key);
    EXPECT_TRUE(d == nullptr || d->dump() != value.dump())
        << key << " was not set by its flag";
  }
}

TEST(ServeKey, CheckpointPresetIsContentAddressed) {
  const std::string a = temp_dir("preset_a.ckpt");
  const std::string b = temp_dir("preset_b.ckpt");
  ckpt::atomic_write_file(a, "preset bytes one");
  ckpt::atomic_write_file(b, "preset bytes two");

  JobSpec s = small_is();
  s.restore_from = a;
  const std::uint64_t ka = derive_key(s).value;
  s.restore_from = b;
  const std::uint64_t kb = derive_key(s).value;
  EXPECT_NE(ka, kb);

  // Same contents at a different path: same key (the bytes are the
  // identity, not the filename).
  const std::string a2 = temp_dir("preset_a_copy.ckpt");
  ckpt::atomic_write_file(a2, "preset bytes one");
  s.restore_from = a2;
  EXPECT_EQ(derive_key(s).value, ka);

  // Unreadable preset: keying throws (and ServeCore turns it into a
  // failure, below), it must not silently key on an empty image.
  s.restore_from = temp_dir("no_such_preset.ckpt");
  EXPECT_THROW((void)derive_key(s), std::exception);

  std::remove(a.c_str());
  std::remove(a2.c_str());
  std::remove(b.c_str());
}

// A captured preset with one flipped payload byte keys differently, so it
// misses and fails loudly at restore; it never hits the intact image's
// stored result.
TEST(ServeKey, FlippedPresetByteMissesAndFailsAtRestore) {
  JobSpec s = small_is();
  s.restore_from = temp_dir("flipped_preset.ckpt");
  {
    auto m = machine::make_machine(s.machine_config(1));
    run_warmup(s, *m);
    m->checkpoint_to(s.restore_from);
  }
  ServeCore::Options opt;  // memory-only store
  opt.jobs = 1;
  ServeCore core(opt);
  const ServeCore::Response intact = core.submit(s);
  ASSERT_TRUE(intact.ok) << intact.error;
  ASSERT_TRUE(core.submit(s).cached);

  std::vector<std::byte> image = ckpt::read_file(s.restore_from);
  image[ckpt::kHeaderBytes + (image.size() - ckpt::kHeaderBytes) / 2] ^=
      std::byte{0x01};
  ckpt::write_file(s.restore_from, image);
  EXPECT_NE(derive_key(s).hex(), intact.key);
  const ServeCore::Response flipped = core.submit(s);
  EXPECT_FALSE(flipped.ok);
  EXPECT_FALSE(flipped.cached);
  EXPECT_NE(flipped.error.find("payload fingerprint mismatch"),
            std::string::npos)
      << flipped.error;
  EXPECT_EQ(core.counters().cache.stores, 1u);
  std::remove(s.restore_from.c_str());
}

// ---------------------------------------------------------------- caching

TEST(ServeCache, RepeatSubmissionIsAByteIdenticalHit) {
  ServeCore::Options opt;
  opt.store_dir = temp_dir("hit_store");
  opt.jobs = 1;
  ServeCore core(opt);

  const JobSpec spec = small_is();
  const ServeCore::Response cold = core.submit(spec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cached);
  EXPECT_FALSE(cold.result.empty());

  const ServeCore::Response hit = core.submit(spec);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.result, cold.result);
  EXPECT_EQ(hit.key, cold.key);

  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.cache.hits, 1u);
  EXPECT_EQ(c.cache.misses, 1u);
  EXPECT_EQ(c.cache.stores, 1u);

  // "Restart": a fresh core over the same store directory hits from disk.
  ServeCore core2(opt);
  const ServeCore::Response warm = core2.submit(spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.result, cold.result);
  EXPECT_EQ(core2.counters().executed, 0u);
}

TEST(ServeCache, CorruptStoreFileDegradesToMissAndHeals) {
  ServeCore::Options opt;
  opt.store_dir = temp_dir("corrupt_store");
  opt.jobs = 1;
  const JobSpec spec = small_cg();
  std::string reference;
  {
    ServeCore core(opt);
    const ServeCore::Response cold = core.submit(spec);
    ASSERT_TRUE(cold.ok) << cold.error;
    reference = cold.result;
  }
  // Corrupt the entry on disk; a fresh core must not serve it as a hit.
  ResultCache probe(opt.store_dir);
  const std::string path = probe.path_of(derive_key(spec));
  ckpt::atomic_write_file(path, "ksr-serve-cache v1 key=feedfacefeedface\n"
                                "machine=bogus;\n{\"not\":\"the result\"}\n");
  ServeCore core(opt);
  const ServeCore::Response r = core.submit(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.cached);
  EXPECT_EQ(r.result, reference);
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_GE(c.cache.load_errors, 1u);
  // The re-execution healed the entry: next submission hits again.
  const ServeCore::Response healed = core.submit(spec);
  EXPECT_TRUE(healed.cached);
  EXPECT_EQ(healed.result, reference);
}

TEST(ServeCache, FailuresAreNeverCached) {
  ServeCore::Options opt;  // memory-only store
  opt.jobs = 1;
  ServeCore core(opt);
  JobSpec bad = small_is();
  bad.restore_from = temp_dir("missing_preset.ckpt");
  const ServeCore::Response r1 = core.submit(bad);
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.cached);
  EXPECT_FALSE(r1.error.empty());
  const ServeCore::Response r2 = core.submit(bad);
  EXPECT_FALSE(r2.ok);
  EXPECT_FALSE(r2.cached);
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.failures, 2u);
  EXPECT_EQ(c.cache.stores, 0u);
  EXPECT_EQ(c.executed, 0u);
}

TEST(ServeCache, ConcurrentDuplicatesDedupToOneExecution) {
  ServeCore::Options opt;  // memory-only
  opt.jobs = 1;
  ServeCore core(opt);
  const JobSpec spec = small_is();

  constexpr std::size_t kClients = 4;
  std::vector<ServeCore::Response> rs(kClients);
  {
    std::vector<std::thread> ts;
    ts.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      ts.emplace_back([&core, &rs, &spec, i] { rs[i] = core.submit(spec); });
    }
    for (auto& t : ts) t.join();
  }
  int uncached = 0;
  for (const ServeCore::Response& r : rs) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.result, rs[0].result);
    if (!r.cached) ++uncached;
  }
  // Exactly one caller simulated; everyone else was served its bytes
  // (in-flight wait or cache hit, depending on arrival time).
  EXPECT_EQ(uncached, 1);
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.cache.stores, 1u);
  EXPECT_EQ(c.inflight_dedup + c.cache.hits,
            static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeCache, BatchMatchesSerialSubmission) {
  const std::vector<JobSpec> specs = {small_is(2), small_cg(2), small_is(4)};

  ServeCore::Options opt;
  opt.jobs = 1;
  ServeCore serial(opt);
  std::vector<std::string> want;
  for (const JobSpec& s : specs) {
    const ServeCore::Response r = serial.submit(s);
    ASSERT_TRUE(r.ok) << r.error;
    want.push_back(r.result);
  }

  opt.jobs = 3;
  ServeCore pooled(opt);
  const std::vector<ServeCore::Response> rs = pooled.submit_batch(specs);
  ASSERT_EQ(rs.size(), specs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_TRUE(rs[i].ok) << rs[i].error;
    EXPECT_EQ(rs[i].result, want[i]) << "batch result " << i;
  }
}

// ---------------------------------------------------------------- daemon

TEST(ServeDaemon, ParallelClientsMatchSerialBytes) {
  const JobSpec spec = small_is();

  ServeCore::Options ref_opt;
  ref_opt.jobs = 1;
  ServeCore ref(ref_opt);
  const ServeCore::Response want = ref.submit(spec);
  ASSERT_TRUE(want.ok) << want.error;

  SocketServer::Options opt;
  opt.socket_path = temp_dir("daemon.sock");
  opt.core.jobs = 1;
  SocketServer server(opt);
  std::thread accept_thread([&server] { server.run(); });

  Json req = Json::object();
  req.set("op", Json::str("submit"));
  req.set("job", spec.to_json());
  const std::string line = req.dump();

  constexpr std::size_t kClients = 3;
  std::vector<std::string> responses(kClients);
  {
    std::vector<std::thread> ts;
    ts.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      ts.emplace_back([&opt, &line, &responses, i] {
        Client c(opt.socket_path);
        c.send_line(line);
        responses[i] = c.read_line();
      });
    }
    for (auto& t : ts) t.join();
  }
  for (const std::string& r : responses) {
    std::string err;
    const Json j = Json::parse(r, &err);
    ASSERT_TRUE(err.empty()) << err << " in " << r;
    ASSERT_NE(j.find("ok"), nullptr);
    EXPECT_TRUE(j.find("ok")->as_bool()) << r;
    ASSERT_NE(j.find("result"), nullptr);
    // The served result is the exact bytes the in-process run produced.
    EXPECT_EQ(j.find("result")->dump(), want.result);
  }

  // Protocol ops: ping, a batch submit (ordered responses), stats, then a
  // clean shutdown that unblocks the accept loop.
  {
    Client c(opt.socket_path);
    c.send_line(R"({"op":"ping"})");
    EXPECT_NE(c.read_line().find("\"op\":\"ping\""), std::string::npos);

    Json batch = Json::object();
    batch.set("op", Json::str("submit"));
    Json jobs = Json::array();
    jobs.push(small_cg().to_json());
    jobs.push(spec.to_json());
    batch.set("jobs", jobs);
    c.send_line(batch.dump());
    const std::string r0 = c.read_line();
    const std::string r1 = c.read_line();
    EXPECT_NE(r0.find("\"index\":0"), std::string::npos) << r0;
    EXPECT_NE(r1.find("\"index\":1"), std::string::npos) << r1;
    EXPECT_NE(r1.find(want.result), std::string::npos) << r1;

    c.send_line(R"({"op":"stats"})");
    EXPECT_NE(c.read_line().find("\"executed\":"), std::string::npos);

    c.send_line(R"({"op":"shutdown"})");
    EXPECT_NE(c.read_line().find("\"ok\":true"), std::string::npos);
  }
  accept_thread.join();
  EXPECT_EQ(server.core().counters().executed, 2u);  // is + cg, once each
}

TEST(ServeDaemon, MalformedRequestsGetErrorLines) {
  SocketServer::Options opt;
  opt.socket_path = temp_dir("daemon_err.sock");
  SocketServer server(opt);
  std::thread accept_thread([&server] { server.run(); });
  {
    Client c(opt.socket_path);
    c.send_line("this is not json");
    EXPECT_NE(c.read_line().find("\"ok\":false"), std::string::npos);
  }
  {
    Client c(opt.socket_path);
    c.send_line(R"({"op":"submit","job":{"workload":"bogus"}})");
    const std::string r = c.read_line();
    EXPECT_NE(r.find("\"ok\":false"), std::string::npos) << r;
    EXPECT_NE(r.find("bogus"), std::string::npos) << r;
    c.send_line(R"({"op":"submit","job":{"procz":1}})");
    EXPECT_NE(c.read_line().find("unknown job field"), std::string::npos);
  }
  server.shutdown();
  accept_thread.join();
  EXPECT_EQ(server.core().counters().executed, 0u);
}

// --------------------------------------------------------------- campaign

Campaign tiny_campaign() {
  std::string err;
  const Json manifest = Json::parse(
      R"({"name":"tiny",)"
      R"("base":{"machine":"ksr1","scale":64},)"
      R"("sweeps":[)"
      R"({"base":{"workload":"is","log2_keys":10,"log2_buckets":6},)"
      R"("axes":{"procs":[1,2]}},)"
      R"({"base":{"workload":"cg","n":120,"nnz_per_row":6,"iters":1},)"
      R"("axes":{"procs":[2]}})"
      R"(]})",
      &err);
  EXPECT_TRUE(err.empty()) << err;
  Campaign c;
  EXPECT_TRUE(expand_manifest(manifest, &c, &err)) << err;
  return c;
}

TEST(ServeCampaign, ManifestExpandsInDeterministicOrder) {
  const Campaign c = tiny_campaign();
  ASSERT_EQ(c.jobs.size(), 3u);
  EXPECT_EQ(c.name, "tiny");
  EXPECT_EQ(c.jobs[0].workload, "is");
  EXPECT_EQ(c.jobs[0].procs, 1u);
  EXPECT_EQ(c.jobs[1].workload, "is");
  EXPECT_EQ(c.jobs[1].procs, 2u);
  EXPECT_EQ(c.jobs[2].workload, "cg");
  EXPECT_EQ(c.jobs[2].procs, 2u);
  // Every job inherits the manifest base.
  for (const JobSpec& j : c.jobs) EXPECT_EQ(j.scale, 64u);
}

TEST(ServeCampaign, ManifestSchemaViolationsAreRejected) {
  const char* bad[] = {
      R"({"sweeps":[{"axes":{"procs":[1]}}],"typo":1})",
      R"({"sweeps":[{"axes":{"procs":[]}}]})",
      R"({"sweeps":[{"axes":{"procz":[1]}}]})",
      R"({"sweeps":[]})",
      R"({"sweeps":[{"base":{"workload":"nope"}}]})",
      R"({"base":7,"sweeps":[{}]})",
  };
  for (const char* text : bad) {
    std::string err;
    const Json manifest = Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << text;
    Campaign c;
    err.clear();
    EXPECT_FALSE(expand_manifest(manifest, &c, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(ServeCampaign, ResumesFromCacheWithByteIdenticalDatabase) {
  const Campaign campaign = tiny_campaign();
  ServeCore::Options opt;
  opt.store_dir = temp_dir("campaign_store");
  opt.jobs = 1;

  // "Kill halfway": seed the store with only the first two jobs done, the
  // way an interrupted campaign run leaves it.
  {
    ServeCore head(opt);
    ASSERT_TRUE(head.submit(campaign.jobs[0]).ok);
    ASSERT_TRUE(head.submit(campaign.jobs[1]).ok);
  }

  const std::string out1 = temp_dir("campaign_resumed");
  ServeCore resumed_core(opt);
  const CampaignOutcome resumed =
      run_campaign(campaign, resumed_core, out1);
  EXPECT_EQ(resumed.jobs, 3u);
  EXPECT_EQ(resumed.hits, 2u);       // the pre-killed prefix came from disk
  EXPECT_EQ(resumed.executed, 1u);   // only the tail simulated
  EXPECT_EQ(resumed.failures, 0u);

  // A second full pass is 100% hits and reproduces the database bytes.
  const std::string out2 = temp_dir("campaign_replayed");
  ServeCore replay_core(opt);
  const CampaignOutcome replayed =
      run_campaign(campaign, replay_core, out2);
  EXPECT_EQ(replayed.hits, 3u);
  EXPECT_EQ(replayed.hit_rate_pct(), 100u);

  const auto slurp = [](const std::string& p) {
    const std::vector<std::byte> b = ckpt::read_file(p);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  };
  EXPECT_EQ(slurp(out1 + ".jsonl"), slurp(out2 + ".jsonl"));
  EXPECT_EQ(slurp(out1 + ".csv"), slurp(out2 + ".csv"));
  EXPECT_FALSE(slurp(out1 + ".jsonl").empty());
}

}  // namespace
}  // namespace ksr::serve
