// ksrsim — command-line driver for the simulated KSR-1 and its experiment
// suite. Lets a user run any kernel, barrier or probe on any machine model
// without writing code:
//
//   ksrsim probe     --machine ksr1 --procs 32
//   ksrsim barrier   --kind tournament-m --procs 32 --episodes 50
//   ksrsim lock      --kind rw --read-pct 60 --procs 16 --ops 100
//   ksrsim kernel    --name cg --procs 16 --scale 64
//   ksrsim sweep     --name is --procs 1,2,4,8,16,32 --scale 64
//   ksrsim serve     --socket ksrsim.sock --store ksrsim_store
//   ksrsim submit    --socket ksrsim.sock --name is --procs 16 --scale 64
//   ksrsim campaign  presets/campaigns/fig8_quick.json --store ksrsim_store
//
// Run `ksrsim help` for the full reference.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/host/sweep_runner.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/serve/campaign.hpp"
#include "ksr/serve/server.hpp"
#include "ksr/study/metrics.hpp"
#include "ksr/study/table.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"
#include "ksr/sync/spinlocks.hpp"
#include "ksr/util/parse.hpp"

namespace {

using namespace ksr;  // NOLINT

// ----------------------------------------------------------- flag parsing

class Args {
 public:
  Args(int argc, char** argv) {
    // Union of the keys any command understands; a typo ("--job 4",
    // "--proc 8") warns instead of silently running with defaults.
    static const std::map<std::string, int> known = {
        {"machine", 1},  {"procs", 1},        {"scale", 1},
        {"no-snarf", 1}, {"csv", 1},          {"kind", 1},
        {"episodes", 1}, {"ops", 1},          {"read-pct", 1},
        {"name", 1},     {"n", 1},            {"nnz-per-row", 1},
        {"iters", 1},    {"log2-pairs", 1},   {"log2-keys", 1},
        {"log2-buckets", 1}, {"pad-buckets", 1},
        {"jobs", 1},     {"trace", 1},        {"trace-out", 1},
        {"trace-cap", 1}, {"report", 1},      {"metrics-csv", 1},
        {"topo-report", 1},
        {"fuzz-seed", 1},    {"check", 0},    {"sim-threads", 1},
        {"cells-per-leaf", 1}, {"cells-per-domain", 1},
        {"checkpoint-at", 1}, {"restore-from", 1},
        {"socket", 1},       {"store", 1},    {"out", 1},
        {"manifest", 1},     {"op", 1},       {"seed", 1}};
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        // First bare token is the positional argument (the campaign
        // manifest path); anything further is still a likely typo.
        if (positional_.empty()) {
          positional_ = a;
        } else {
          std::cerr << "warning: ignoring unknown argument '" << a << "'\n";
        }
        continue;
      }
      std::string key = a.substr(2);
      std::string val;
      bool has_val = false;
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        val = key.substr(eq + 1);
        key = key.substr(0, eq);
        has_val = true;
      }
      if (known.find(key) == known.end()) {
        std::cerr << "warning: ignoring unknown argument '--" << key << "'\n";
        if (!has_val && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
          ++i;  // swallow the typo'd flag's value too
        }
        continue;
      }
      if (has_val) {
        kv_[key] = val;
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[key] = argv[++i];
      } else {
        kv_[key] = "1";
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def = "") const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }
  /// Strict parse of one non-negative integer token; false on malformed or
  /// overflowing input (the shared tool parser — see ksr/util/parse.hpp).
  [[nodiscard]] static bool parse_u64(const std::string& tok,
                                      std::uint64_t* out) {
    return util::parse_u64(tok, out);
  }
  [[nodiscard]] unsigned get_u(const std::string& key, unsigned def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::uint64_t v = 0;
    if (!parse_u64(it->second, &v) ||
        v > std::numeric_limits<unsigned>::max()) {
      std::cerr << "warning: ignoring invalid --" << key << " value '"
                << it->second << "' (expected a non-negative integer)\n";
      return def;
    }
    return static_cast<unsigned>(v);
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::uint64_t v = 0;
    if (!parse_u64(it->second, &v)) {
      std::cerr << "warning: ignoring invalid --" << key << " value '"
                << it->second << "' (expected a non-negative integer)\n";
      return def;
    }
    return v;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.count(key) > 0;
  }
  [[nodiscard]] std::vector<unsigned> get_list(const std::string& key,
                                               std::vector<unsigned> def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::vector<unsigned> out;
    std::stringstream ss(it->second);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      std::uint64_t v = 0;
      if (!parse_u64(tok, &v) || v > std::numeric_limits<unsigned>::max()) {
        std::cerr << "warning: skipping invalid --" << key << " list entry '"
                  << tok << "' (expected a non-negative integer)\n";
        continue;
      }
      out.push_back(static_cast<unsigned>(v));
    }
    if (out.empty()) {
      std::cerr << "warning: --" << key
                << " has no valid entries; using the default list\n";
      return def;
    }
    return out;
  }
  /// First non-flag token after the command (e.g. the campaign manifest).
  [[nodiscard]] const std::string& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> kv_;
  std::string positional_;
};

/// Observability session from the common flags (see docs/OBSERVABILITY.md):
/// `--trace [cat,...]` captures a structured trace, `--trace-out FILE` names
/// the output (default ksrsim_<cmd>_trace.json), `--trace-cap N` sizes the
/// per-job record buffer, `--metrics-csv FILE` the sampled metrics time
/// series, `--report FILE` a ksrprof simulated-time profile,
/// `--topo-report FILE` the byte-stable topology report (+ FILE.matrix.csv).
obs::Session make_session(const Args& args, const std::string& cmd) {
  obs::SessionOptions s;
  s.trace = args.has("trace") || args.has("trace-out");
  const std::string cats = args.get("trace");
  if (cats != "1") s.categories = cats;  // bare --trace = all categories
  s.trace_out = args.get("trace-out");
  s.metrics_csv = args.get("metrics-csv");
  s.report = args.get("report");
  s.topo_report = args.get("topo-report");
  const unsigned cap = args.get_u("trace-cap", 0);
  if (cap != 0) s.trace_capacity = cap;
  return obs::Session(std::move(s), "ksrsim_" + cmd);
}

/// Translate the flag vocabulary into a serve::JobSpec, the one run
/// description: `ksrsim kernel` runs it locally, `ksrsim submit` sends it to
/// the daemon, and probe/barrier/lock take their machine from it. Size
/// fields left at 0 resolve to the workload's registry defaults.
serve::JobSpec spec_from_args(const Args& args, unsigned procs) {
  serve::JobSpec s;
  s.machine = args.get("machine", "ksr1");
  s.procs = procs;
  s.scale = args.get_u("scale", 1);
  s.snarf = !args.has("no-snarf");
  s.fuzz_seed = args.get_u64("fuzz-seed", 0);
  s.cells_per_leaf = args.get_u("cells-per-leaf", 0);
  s.cells_per_domain = args.get_u("cells-per-domain", 0);
  s.workload = args.get("name", "cg");
  s.seed = args.get_u64("seed", 0);
  s.log2_keys = args.get_u("log2-keys", 0);
  s.log2_buckets = args.get_u("log2-buckets", 0);
  s.pad_buckets = args.has("pad-buckets");
  s.n = args.get_u("n", 0);
  s.nnz_per_row = args.get_u("nnz-per-row", 0);
  s.iters = args.get_u("iters", 0);
  s.log2_pairs = args.get_u("log2-pairs", 0);
  s.restore_from = args.get("restore-from");
  return s;
}

/// The machine the common flags name, at `procs` cells.
std::unique_ptr<machine::Machine> make_machine(const Args& args,
                                               unsigned procs) {
  return machine::make_machine(
      spec_from_args(args, procs).machine_config(args.get_u("sim-threads", 1)));
}

// With --check, attach the ALLCACHE invariant checker for the lifetime of
// the run and audit the whole machine at scope exit (docs/CHECKING.md). In
// a -DKSR_CHECK=ON build every coherence transition is audited as it
// commits; in a default build only the end-of-run audit runs. A violation
// prints the trace-backed diagnostic and fails the process via
// g_check_failed (checked in main after the command returns).
bool g_check_failed = false;

class CheckScope {
 public:
  CheckScope(const Args& args, machine::Machine& m) {
    if (!args.has("check")) return;
    cm_ = dynamic_cast<machine::CoherentMachine*>(&m);
    if (cm_ == nullptr) {
      std::cerr << "warning: --check: this machine model has no coherence "
                   "directory to audit\n";
      return;
    }
    checker_ = std::make_unique<check::InvariantChecker>(*cm_);
    cm_->attach_checker(checker_.get());
  }
  ~CheckScope() {
    if (checker_ == nullptr) return;
    try {
      checker_->audit_all();
      std::cerr << "[check] invariants ok: transitions="
                << checker_->stats().transitions
                << " audits=" << checker_->stats().audits << "\n";
    } catch (const check::ViolationError& e) {
      std::cerr << "[check] FAIL\n" << e.what() << "\n";
      g_check_failed = true;
    }
    cm_->attach_checker(nullptr);
  }
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

 private:
  machine::CoherentMachine* cm_ = nullptr;
  std::unique_ptr<check::InvariantChecker> checker_;
};

// ------------------------------------------------------------- commands

int cmd_probe(const Args& args) {
  const unsigned procs = args.get_u("procs", 2);
  auto m = make_machine(args, std::max(procs, 2u));
  CheckScope check(args, *m);
  obs::Session session = make_session(args, "probe");
  obs::JobObs jo = session.job();
  jo.attach(*m);
  auto arr = m->alloc<double>("probe", 4096);
  auto flag = m->alloc<int>("flag", 1);
  double sub = 0, local = 0, remote = 0;
  m->run([&](machine::Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 4096; i += 16) cpu.write(arr, i, 1.0);
      // Sub-cache hit.
      (void)cpu.read(arr, 0);
      double t0 = cpu.seconds();
      for (int r = 0; r < 100; ++r) (void)cpu.read(arr, 0);
      sub = (cpu.seconds() - t0) / 100;
      // Local-cache-ish: stride sub-blocks.
      t0 = cpu.seconds();
      std::size_t k = 0;
      for (std::size_t i = 0; i < 4096; i += 8, ++k) (void)cpu.read(arr, i);
      local = (cpu.seconds() - t0) / static_cast<double>(k);
      cpu.write(flag, 0, 1);
    } else if (cpu.id() == 1) {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      const double t0 = cpu.seconds();
      std::size_t k = 0;
      for (std::size_t i = 0; i < 4096; i += 16, ++k) (void)cpu.read(arr, i);
      remote = (cpu.seconds() - t0) / static_cast<double>(k);
    }
  });
  jo.finish();
  if (session.active()) session.collect(std::move(jo), "probe");
  std::printf("machine: %s, %u cells\n",
              machine::to_string(m->config().kind), m->nproc());
  std::printf("  repeat-read (sub-cache)   : %7.3f us\n", sub * 1e6);
  std::printf("  stride-read (local level) : %7.3f us\n", local * 1e6);
  std::printf("  remote read               : %7.3f us\n", remote * 1e6);
  session.close();
  return session.ok() ? 0 : 1;
}

int cmd_barrier(const Args& args) {
  static const std::map<std::string, sync::BarrierKind> kinds = {
      {"counter", sync::BarrierKind::kCounter},
      {"tree", sync::BarrierKind::kTree},
      {"tree-m", sync::BarrierKind::kTreeM},
      {"dissemination", sync::BarrierKind::kDissemination},
      {"tournament", sync::BarrierKind::kTournament},
      {"tournament-m", sync::BarrierKind::kTournamentM},
      {"mcs", sync::BarrierKind::kMcs},
      {"mcs-m", sync::BarrierKind::kMcsM},
      {"system", sync::BarrierKind::kSystem}};
  const auto it = kinds.find(args.get("kind", "tournament-m"));
  if (it == kinds.end()) {
    std::fprintf(stderr, "unknown barrier kind\n");
    return 1;
  }
  const unsigned procs = args.get_u("procs", 16);
  const int episodes = static_cast<int>(args.get_u("episodes", 25));
  auto m = make_machine(args, procs);
  CheckScope check(args, *m);
  auto barrier = sync::make_barrier(*m, it->second);
  obs::Session session = make_session(args, "barrier");
  obs::JobObs jo = session.job();
  jo.attach(*m);
  double total = 0;
  auto res = m->run([&](machine::Cpu& cpu) {
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    if (cpu.seconds() - t0 > total) total = cpu.seconds() - t0;
  });
  jo.finish();
  if (session.active()) {
    session.collect(std::move(jo), std::string(barrier->name()));
  }
  std::printf("%s on %s, %u procs: %.1f us/episode "
              "(%llu network transactions total)\n",
              std::string(barrier->name()).c_str(),
              machine::to_string(m->config().kind), procs,
              total / episodes * 1e6,
              static_cast<unsigned long long>(res.pmon.ring_requests));
  session.close();
  return session.ok() ? 0 : 1;
}

int cmd_lock(const Args& args) {
  const unsigned procs = args.get_u("procs", 8);
  const int ops = static_cast<int>(args.get_u("ops", 50));
  const std::string kind = args.get("kind", "hw");
  const unsigned read_pct = args.get_u("read-pct", 0);
  auto m = make_machine(args, procs);
  CheckScope check(args, *m);
  obs::Session session = make_session(args, "lock");
  obs::JobObs jo = session.job();
  jo.attach(*m);
  double t = 0;
  if (kind == "rw") {
    sync::TicketRwLock lock(*m);
    m->run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        const bool rd = cpu.rng().below(100) < read_pct;
        if (rd) {
          lock.acquire_read(cpu);
          cpu.work(6000);
          lock.release_read(cpu);
        } else {
          lock.acquire_write(cpu);
          cpu.work(6000);
          lock.release_write(cpu);
        }
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  } else if (kind == "hw") {
    sync::HardwareLock lock(*m);
    m->run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        lock.acquire(cpu);
        cpu.work(6000);
        lock.release(cpu);
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  } else {
    static const std::map<std::string, sync::SpinLockKind> kinds = {
        {"tas", sync::SpinLockKind::kTestAndSet},
        {"tas-backoff", sync::SpinLockKind::kTestAndSetBackoff},
        {"ticket", sync::SpinLockKind::kTicket},
        {"anderson", sync::SpinLockKind::kAnderson},
        {"mcs-queue", sync::SpinLockKind::kMcsQueue}};
    const auto it = kinds.find(kind);
    if (it == kinds.end()) {
      std::fprintf(stderr, "unknown lock kind '%s'\n", kind.c_str());
      return 1;
    }
    auto lock = sync::make_spinlock(*m, it->second);
    m->run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        lock->acquire(cpu);
        cpu.work(6000);
        lock->release(cpu);
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  }
  jo.finish();
  if (session.active()) session.collect(std::move(jo), kind);
  std::printf("%s lock, %u procs, %d ops/proc: %.4f s total, %.1f us/op\n",
              kind.c_str(), procs, ops, t,
              t / ops * 1e6);
  session.close();
  return session.ok() ? 0 : 1;
}

struct KernelRun {
  serve::JobOutcome out;  // result bytes + whole-machine events_dispatched
  std::uint64_t quanta = 0;
  obs::JobObs obs;
};

/// Build the spec's machine, attach --check and the observability session,
/// and run the workload: the served job's path with observers attached.
KernelRun run_kernel_once(const obs::Session& session, const Args& args,
                          const serve::JobSpec& spec) {
  auto m = machine::make_machine(
      spec.machine_config(args.get_u("sim-threads", 1)));
  CheckScope check(args, *m);
  KernelRun r;
  r.obs = session.job();
  r.obs.attach(*m);
  r.out = serve::run_workload(spec, *m);
  r.obs.finish();
  r.quanta = m->parallel_engine().quanta();
  return r;
}

/// spec_from_args plus validation; throws with the spec's diagnostic.
serve::JobSpec checked_spec(const Args& args, unsigned procs) {
  serve::JobSpec spec = spec_from_args(args, procs);
  const std::string at = args.get("checkpoint-at");
  if (!at.empty()) {
    if (!spec.restore_from.empty()) {
      throw std::invalid_argument(
          "--checkpoint-at and --restore-from are mutually exclusive");
    }
    spec.restore_from = at;  // the timed run restores what the warm-up wrote
  }
  const std::string bad = spec.validate();
  if (!bad.empty()) throw std::invalid_argument(bad);
  return spec;
}

int cmd_kernel(const Args& args) {
  const serve::JobSpec spec = checked_spec(args, args.get_u("procs", 8));
  const unsigned sim_threads = args.get_u("sim-threads", 1);
  obs::Session session = make_session(args, "kernel");
  const auto wall0 = std::chrono::steady_clock::now();
  const std::string at = args.get("checkpoint-at");
  if (!at.empty()) {
    // Split-phase flow (docs/CHECKPOINT.md): simulate the warm-up on a
    // donor machine, checkpoint it, then run the spec restoring from it —
    // bit-identical to the uninterrupted split run.
    auto donor = machine::make_machine(spec.machine_config(sim_threads));
    serve::run_warmup(spec, *donor);
    donor->checkpoint_to(at);
    std::cerr << "checkpoint written to " << at << " ("
              << donor->parallel_engine().events_dispatched()
              << " events at capture)\n";
  }
  KernelRun r = run_kernel_once(session, args, spec);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  if (session.active()) {
    session.collect(std::move(r.obs),
                    spec.workload + " p=" + std::to_string(spec.procs));
  }
  // Same [host] line the bench binaries emit (bench/report.py HOST_RE):
  // events_dispatched is the whole-machine determinism fingerprint.
  std::fprintf(stderr,
               "[host] bench=ksrsim_kernel events_dispatched=%llu "
               "wall_ms=%lld sim_threads=%u quanta=%llu\n",
               static_cast<unsigned long long>(r.out.events),
               static_cast<long long>(wall_ms), sim_threads,
               static_cast<unsigned long long>(r.quanta));
  // The result object: the exact bytes a served job of this spec caches.
  std::printf("%s\n", r.out.result.c_str());
  session.close();
  return session.ok() ? 0 : 1;
}

int cmd_sweep(const Args& args) {
  if (args.has("checkpoint-at") || args.has("restore-from")) {
    // Every sweep point has a different machine config, and a checkpoint
    // only restores onto the exact capturing config; one shared path would
    // either be overwritten per point or refuse every restore.
    std::cerr << "ksrsim sweep: --checkpoint-at/--restore-from are "
                 "kernel-command flags (one machine per file); use "
                 "`ksrsim kernel --name is` or bench_fig8_speedup "
                 "--warm-start for checkpointed sweeps\n";
    return 1;
  }
  const std::vector<unsigned> procs =
      args.get_list("procs", {1, 2, 4, 8, 16});
  // Every processor count is an independent simulation: shard them over
  // host threads (--jobs N, default one per core). Results merge in
  // submission order, so the table is bit-identical for any --jobs value.
  host::SweepRunner runner(args.get_u("jobs", 0));
  obs::Session session = make_session(args, "sweep");
  std::vector<std::function<KernelRun()>> jobs;
  jobs.reserve(procs.size());
  for (unsigned p : procs) {
    jobs.emplace_back([&args, &session, spec = checked_spec(args, p)] {
      return run_kernel_once(session, args, spec);
    });
  }
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<KernelRun> runs = runner.run(jobs);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  std::vector<std::pair<unsigned, double>> measured;
  std::uint64_t events = 0;
  std::uint64_t quanta = 0;
  const std::string name = args.get("name", "cg");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (session.active()) {
      session.collect(std::move(runs[i].obs),
                      name + " p=" + std::to_string(procs[i]));
    }
    std::string err;
    const serve::Json result = serve::Json::parse(runs[i].out.result, &err);
    measured.emplace_back(procs[i], result.find("seconds")->as_double());
    events += runs[i].out.events;
    quanta += runs[i].quanta;
  }
  std::fprintf(stderr,
               "[host] bench=ksrsim_sweep events_dispatched=%llu "
               "wall_ms=%lld jobs=%u sim_threads=%u quanta=%llu\n",
               static_cast<unsigned long long>(events),
               static_cast<long long>(wall_ms), args.get_u("jobs", 0),
               args.get_u("sim-threads", 1),
               static_cast<unsigned long long>(quanta));
  study::TextTable t({"procs", "time (s)", "speedup", "efficiency",
                      "serial fraction"});
  for (const auto& row : study::scaling_rows(measured)) {
    t.add_row({std::to_string(row.p), study::TextTable::num(row.seconds, 5),
               study::TextTable::num(row.speedup, 3),
               row.p == 1 ? "-" : study::TextTable::num(row.efficiency, 3),
               row.p == 1 ? "-"
                          : study::TextTable::num(row.serial_fraction, 6)});
  }
  std::printf("%s scaling sweep:\n", name.c_str());
  if (args.has("csv")) {
    t.print_csv();
  } else {
    t.print();
  }
  session.close();
  return session.ok() ? 0 : 1;
}

// ----------------------------------------------------- serving commands

int cmd_serve(const Args& args) {
  serve::SocketServer::Options opt;
  opt.socket_path = args.get("socket", "ksrsim.sock");
  opt.core.store_dir = args.get("store");
  opt.core.jobs = args.get_u("jobs", 0);
  opt.core.sim_threads = args.get_u("sim-threads", 1);
  serve::SocketServer server(opt);
  std::fprintf(stderr, "[serve] listening on %s (store=%s)\n",
               server.socket_path().c_str(),
               opt.core.store_dir.empty() ? "<memory>"
                                          : opt.core.store_dir.c_str());
  server.run();
  const serve::ServeCore::Counters c = server.core().counters();
  std::fprintf(stderr,
               "[serve] shutdown: hits=%llu misses=%llu stores=%llu "
               "inflight_dedup=%llu executed=%llu failures=%llu\n",
               static_cast<unsigned long long>(c.cache.hits),
               static_cast<unsigned long long>(c.cache.misses),
               static_cast<unsigned long long>(c.cache.stores),
               static_cast<unsigned long long>(c.inflight_dedup),
               static_cast<unsigned long long>(c.executed),
               static_cast<unsigned long long>(c.failures));
  const std::string metrics_csv = args.get("metrics-csv");
  if (!metrics_csv.empty()) {
    // Same counter,value CSV shape as the obs metrics exporter.
    std::ostringstream os;
    server.core().write_stats_csv(os);
    ckpt::atomic_write_file(metrics_csv, os.str());
  }
  return 0;
}

int cmd_submit(const Args& args) {
  const std::string path = args.get("socket", "ksrsim.sock");
  const std::string op = args.get("op", "submit");
  serve::Client client(path);
  std::string req;
  if (op == "submit") {
    serve::Json j = serve::Json::object();
    j.set("op", serve::Json::str("submit"));
    j.set("job", spec_from_args(args, args.get_u("procs", 8)).to_json());
    req = j.dump();
  } else if (op == "ping" || op == "stats" || op == "shutdown") {
    req = "{\"op\":\"" + op + "\"}";
  } else {
    std::fprintf(stderr,
                 "ksrsim submit: unknown --op '%s' "
                 "(submit|ping|stats|shutdown)\n",
                 op.c_str());
    return 1;
  }
  client.send_line(req);
  const std::string resp = client.read_line();
  std::printf("%s\n", resp.c_str());
  return resp.rfind("{\"ok\":true", 0) == 0 ? 0 : 1;
}

int cmd_campaign(const Args& args) {
  std::string manifest_path = args.get("manifest");
  if (manifest_path.empty()) manifest_path = args.positional();
  if (manifest_path.empty()) {
    std::fprintf(stderr,
                 "ksrsim campaign: no manifest "
                 "(usage: ksrsim campaign manifest.json --store DIR)\n");
    return 1;
  }
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ksrsim campaign: cannot read manifest '%s'\n",
                 manifest_path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string err;
  const serve::Json manifest = serve::Json::parse(text.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "ksrsim campaign: %s: %s\n", manifest_path.c_str(),
                 err.c_str());
    return 1;
  }
  serve::Campaign campaign;
  if (!serve::expand_manifest(manifest, &campaign, &err)) {
    std::fprintf(stderr, "ksrsim campaign: %s: %s\n", manifest_path.c_str(),
                 err.c_str());
    return 1;
  }
  serve::ServeCore::Options copt;
  copt.store_dir = args.get("store");
  copt.jobs = args.get_u("jobs", 0);
  copt.sim_threads = args.get_u("sim-threads", 1);
  serve::ServeCore core(copt);
  const std::string prefix = args.get("out", campaign.name);
  const serve::CampaignOutcome outcome =
      run_campaign(campaign, core, prefix);
  return outcome.failures == 0 ? 0 : 1;
}

int cmd_help() {
  // The kernel vocabulary and size defaults come from the workload registry.
  std::string names;
  std::string sizes;
  for (const serve::Workload& w : serve::workloads()) {
    names += std::string(names.empty() ? "" : "|") + w.name;
    sizes += std::string("  ") + w.name + " ";
    for (const serve::Workload::Size& size : w.sizes) {
      std::string flag = size.field;
      std::replace(flag.begin(), flag.end(), '_', '-');
      sizes += " --" + flag + " " + std::to_string(size.value);
    }
    sizes += "\n";
  }
  std::printf(
      "ksrsim — drive the simulated KSR-1 from the command line\n"
      "\n"
      "commands:\n"
      "  probe    latency probes            [--machine M --procs P]\n"
      "  barrier  time a barrier algorithm  [--kind K --procs P --episodes E]\n"
      "  lock     time a lock               [--kind hw|rw|tas|tas-backoff|\n"
      "                                       ticket|anderson|mcs-queue\n"
      "                                       --read-pct N --ops N]\n"
      "  kernel   run one NAS kernel and print its result object (the bytes\n"
      "           a served job of the same flags caches)\n"
      "                                     [--name %s --procs P]\n",
      names.c_str());
  std::puts(
      "  sweep    scaling table             [--name K --procs 1,2,4,...\n"
      "                                       --jobs N  shard the sweep over\n"
      "                                       N host threads (default: one\n"
      "                                       per core; output is identical\n"
      "                                       for any N)]\n"
      "  serve    simulation-as-a-service daemon on an AF_UNIX socket\n"
      "           [--socket PATH --store DIR --jobs N --sim-threads N\n"
      "            --metrics-csv FILE]  (docs/SERVING.md; newline-delimited\n"
      "           JSON protocol; results cached content-addressed in DIR)\n"
      "  submit   send one request to a running daemon and print the\n"
      "           response line [--socket PATH --op submit|ping|stats|\n"
      "           shutdown, plus the kernel flags for --op submit]\n"
      "  campaign expand a declarative sweep manifest, run it through the\n"
      "           result cache, and write <out>.jsonl/<out>.csv\n"
      "           [MANIFEST.json --store DIR --out PREFIX --jobs N]\n"
      "\n"
      "common flags:\n"
      "  --machine ksr1|ksr2|symmetry|butterfly   (default ksr1)\n"
      "  --scale N      shrink caches by N (pair with smaller problems)\n"
      "  --no-snarf     disable read-snarfing\n"
      "  --csv          CSV output where applicable\n"
      "  --fuzz-seed N  perturb event tie-breaking and ring slot phases\n"
      "                 (deterministic per seed; 0 = reference schedule;\n"
      "                 see docs/CHECKING.md and tools/ksrfuzz)\n"
      "  --sim-threads N  host threads advancing each single simulation\n"
      "                 through the conservative-quantum engine (0 = one\n"
      "                 per core; results are bit-identical for any N;\n"
      "                 see docs/PARALLEL.md)\n"
      "  --check        audit ALLCACHE protocol invariants at end of run\n"
      "                 (every transition in -DKSR_CHECK=ON builds; see\n"
      "                 docs/CHECKING.md)\n"
      "\n"
      "observability (docs/OBSERVABILITY.md; never perturbs simulated time):\n"
      "  --trace [cat,...]    capture a structured event trace (categories:\n"
      "                       ring,coherence,sync,stall; default all)\n"
      "  --trace-out FILE     trace output (.json = Chrome/Perfetto trace\n"
      "                       events, .csv = CSV; default\n"
      "                       ksrsim_<cmd>_trace.json)\n"
      "  --trace-cap N        records per job buffer (default 2^18;\n"
      "                       overflow is counted in the drop footer)\n"
      "  --metrics-csv FILE   sampled machine-wide metrics time series\n"
      "  --report FILE        ksrprof simulated-time profile (sharing\n"
      "                       patterns, sync critical paths, stalls); see\n"
      "                       also tools/ksrprof for offline CSV analysis\n"
      "  --topo-report FILE   topology report: per-level ring utilization,\n"
      "                       directory-shard pressure, boundary channels,\n"
      "                       leaf-to-leaf traffic (+ FILE.matrix.csv\n"
      "                       heatmap; byte-stable across --jobs and\n"
      "                       --sim-threads; see also tools/ksrtop)\n"
      "\n"
      "kernel inputs: --seed N (0 = the kernel's published seed),\n"
      "  --pad-buckets (is: pad per-cpu bucket portions to sub-page\n"
      "  boundaries), and the size flags below (0 = the default shown):");
  std::fputs(sizes.c_str(), stdout);
  std::puts(
      "\n"
      "checkpointing (kernel --name is only; docs/CHECKPOINT.md):\n"
      "  --checkpoint-at FILE  run the split-phase IS kernel and write a\n"
      "                        checkpoint of the quiesced machine at the\n"
      "                        warm-up boundary before the timed phases\n"
      "  --restore-from FILE   skip the warm-up: restore the machine from a\n"
      "                        checkpoint (same machine flags required) and\n"
      "                        run the timed phases bit-exactly");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return cmd_help();
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  try {
    int rc = 0;
    if (cmd == "probe") rc = cmd_probe(args);
    else if (cmd == "barrier") rc = cmd_barrier(args);
    else if (cmd == "lock") rc = cmd_lock(args);
    else if (cmd == "kernel") rc = cmd_kernel(args);
    else if (cmd == "sweep") rc = cmd_sweep(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    else if (cmd == "submit") rc = cmd_submit(args);
    else if (cmd == "campaign") rc = cmd_campaign(args);
    else rc = cmd_help();
    return g_check_failed && rc == 0 ? 1 : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksrsim: %s\n", e.what());
    return 1;
  }
}
