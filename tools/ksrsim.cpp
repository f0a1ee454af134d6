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
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/serve/campaign.hpp"
#include "ksr/serve/server.hpp"
#include "ksr/study/metrics.hpp"
#include "ksr/study/sweep.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"
#include "ksr/sync/spinlocks.hpp"
#include "ksr/util/flags.hpp"

namespace {

using namespace ksr;  // NOLINT

// ----------------------------------------------------------------- flags

/// Every knob a command reads, each bound to one flag row
/// (ksr/util/flags.hpp): the JobSpec rows come from serve's field table,
/// the observability rows from obs::SessionOptions, the rest are ksrsim's.
struct Cli {
  serve::JobSpec spec;
  std::vector<unsigned> sweep_procs = {1, 2, 4, 8, 16};
  study::BenchOptions run;  // --csv, --jobs, --sim-threads, observability
  bool check = false;
  std::string kind;
  unsigned episodes = 25;
  unsigned ops = 50;
  unsigned read_pct = 0;
  std::string checkpoint_at;
  std::string socket = "ksrsim.sock";
  std::string store;
  std::string out;
  std::string manifest;
  std::string op = "submit";

  std::vector<util::Flag> tool_rows() {
    return {
        {"sim-threads", &run.sim_threads,
         "N  host threads per simulation (0 = one per core)"},
        {"jobs", &run.jobs, "N  host shards (0 = one per core)"},
        {"check", &check, "audit ALLCACHE invariants (docs/CHECKING.md)"},
        {"csv", &run.csv, "CSV output where applicable"},
        {"kind", &kind, "K  barrier (default tournament-m) or lock (hw)"},
        {"episodes", &episodes, "E  barrier episodes (default 25)"},
        {"ops", &ops, "N  lock operations per cell (default 50)"},
        {"read-pct", &read_pct, "N  rw lock: percentage of reads"},
        {"checkpoint-at", &checkpoint_at,
         "FILE  kernel: checkpoint the warm-up, then restore it"},
        {"socket", &socket, "PATH  daemon socket (default ksrsim.sock)"},
        {"store", &store, "DIR  result store (default: in memory)"},
        {"out", &out, "PREFIX  campaign output (default: its name)"},
        {"manifest", &manifest, "FILE  campaign manifest (or bare argument)"},
        {"op", &op, "OP  submit|ping|stats|shutdown (default submit)"},
    };
  }

  std::vector<util::Flag> rows() {
    std::vector<util::Flag> all = tool_rows();
    for (const auto& group : {spec.flags(), run.obs.flags()}) {
      all.insert(all.end(), group.begin(), group.end());
    }
    return all;
  }
};

/// The machine config the spec flags name.
machine::MachineConfig machine_config(const Cli& cli) {
  return cli.spec.machine_config(cli.run.sim_threads);
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
  CheckScope(bool check, machine::Machine& m) {
    if (!check) return;
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

int cmd_probe(Cli& cli) {
  cli.spec.procs = std::max(cli.spec.procs, 2u);
  study::Study study(cli.run, "ksrsim_probe");
  struct Probe {
    double sub = 0, local = 0, remote = 0;
  };
  const Probe probe = study.run<Probe>({[&cli](study::Job& job) {
    machine::Machine& m = job.machine(machine_config(cli), "probe");
    CheckScope check(cli.check, m);
    auto arr = m.alloc<double>("probe", 4096);
    auto flag = m.alloc<int>("flag", 1);
    Probe p;
    m.run([&](machine::Cpu& cpu) {
      if (cpu.id() == 0) {
        for (std::size_t i = 0; i < 4096; i += 16) cpu.write(arr, i, 1.0);
        // Sub-cache hit.
        (void)cpu.read(arr, 0);
        double t0 = cpu.seconds();
        for (int r = 0; r < 100; ++r) (void)cpu.read(arr, 0);
        p.sub = (cpu.seconds() - t0) / 100;
        // Local-cache-ish: stride sub-blocks.
        t0 = cpu.seconds();
        std::size_t k = 0;
        for (std::size_t i = 0; i < 4096; i += 8, ++k) (void)cpu.read(arr, i);
        p.local = (cpu.seconds() - t0) / static_cast<double>(k);
        cpu.write(flag, 0, 1);
      } else if (cpu.id() == 1) {
        while (cpu.read(flag, 0) == 0) cpu.work(10);
        const double t0 = cpu.seconds();
        std::size_t k = 0;
        for (std::size_t i = 0; i < 4096; i += 16, ++k) (void)cpu.read(arr, i);
        p.remote = (cpu.seconds() - t0) / static_cast<double>(k);
      }
    });
    return p;
  }})[0];
  std::printf("machine: %s, %u cells\n",
              machine::to_string(machine_config(cli).kind), cli.spec.procs);
  std::printf("  repeat-read (sub-cache)   : %7.3f us\n", probe.sub * 1e6);
  std::printf("  stride-read (local level) : %7.3f us\n", probe.local * 1e6);
  std::printf("  remote read               : %7.3f us\n", probe.remote * 1e6);
  return study.close() ? 0 : 1;
}

int cmd_barrier(Cli& cli) {
  const sync::BarrierKind kind = sync::barrier_kind_named(
      cli.kind.empty() ? "tournament-m" : cli.kind);
  const int episodes = static_cast<int>(cli.episodes);
  study::Study study(cli.run, "ksrsim_barrier");
  struct Timing {
    double seconds = 0;
    std::uint64_t ring_requests = 0;
  };
  const Timing r = study.run<Timing>({[&](study::Job& job) {
    machine::Machine& m =
        job.machine(machine_config(cli), std::string(to_string(kind)));
    CheckScope check(cli.check, m);
    Timing t{study::barrier_episode_seconds(m, kind, episodes)};
    for (unsigned c = 0; c < m.nproc(); ++c) {
      t.ring_requests += m.cell_pmon(c).ring_requests;
    }
    return t;
  }})[0];
  std::printf("%s on %s, %u procs: %.1f us/episode "
              "(%llu network transactions total)\n",
              std::string(to_string(kind)).c_str(),
              machine::to_string(machine_config(cli).kind), cli.spec.procs,
              r.seconds * 1e6,
              static_cast<unsigned long long>(r.ring_requests));
  return study.close() ? 0 : 1;
}

/// Simulated seconds for every cell to finish `ops` operations on a lock
/// of `kind` (hw, rw or a spin lock).
double time_lock(machine::Machine& m, const std::string& kind, int ops,
                 unsigned read_pct) {
  double t = 0;
  if (kind == "rw") {
    sync::TicketRwLock lock(m);
    m.run([&](machine::Cpu& cpu) {
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
    sync::HardwareLock lock(m);
    m.run([&](machine::Cpu& cpu) {
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
      throw std::invalid_argument("unknown lock kind '" + kind + "'");
    }
    auto lock = sync::make_spinlock(m, it->second);
    m.run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        lock->acquire(cpu);
        cpu.work(6000);
        lock->release(cpu);
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  }
  return t;
}

int cmd_lock(Cli& cli) {
  const int ops = static_cast<int>(cli.ops);
  const std::string kind = cli.kind.empty() ? "hw" : cli.kind;
  study::Study study(cli.run, "ksrsim_lock");
  const double t = study.run<double>({[&](study::Job& job) {
    machine::Machine& m = job.machine(machine_config(cli), kind);
    CheckScope check(cli.check, m);
    return time_lock(m, kind, ops, cli.read_pct);
  }})[0];
  std::printf("%s lock, %u procs, %d ops/proc: %.4f s total, %.1f us/op\n",
              kind.c_str(), cli.spec.procs, ops, t, t / ops * 1e6);
  return study.close() ? 0 : 1;
}

/// The served job's path as a sweep-harness job: build the spec's machine,
/// attach --check, run the workload and return its result object.
std::function<std::string(study::Job&)> kernel_job(const Cli& cli,
                                                   serve::JobSpec spec) {
  return [&cli, spec = std::move(spec)](study::Job& job) {
    machine::Machine& m =
        job.machine(spec.machine_config(cli.run.sim_threads),
                    spec.workload + " p=" + std::to_string(spec.procs));
    CheckScope check(cli.check, m);
    return serve::run_workload(spec, m).result;
  };
}

/// The spec flags at `procs` cells, validated; throws with the spec's
/// diagnostic.
serve::JobSpec checked_spec(const Cli& cli, unsigned procs) {
  serve::JobSpec spec = cli.spec;
  spec.procs = procs;
  const std::string& at = cli.checkpoint_at;
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

int cmd_kernel(Cli& cli) {
  const serve::JobSpec spec = checked_spec(cli, cli.spec.procs);
  study::Study study(cli.run, "ksrsim_kernel");
  const std::string& at = cli.checkpoint_at;
  if (!at.empty()) {
    // Split-phase flow (docs/CHECKPOINT.md): simulate the warm-up on a
    // donor machine, checkpoint it, then run the spec restoring from it —
    // bit-identical to the uninterrupted split run. The donor is not a run
    // of its own: restore carries its events into the timed machine's count.
    auto donor =
        machine::make_machine(spec.machine_config(cli.run.sim_threads));
    serve::run_warmup(spec, *donor);
    donor->checkpoint_to(at);
    std::cerr << "checkpoint written to " << at << " ("
              << donor->parallel_engine().events_dispatched()
              << " events at capture)\n";
  }
  // The result object: the exact bytes a served job of this spec caches.
  const std::string result = study.run<std::string>({kernel_job(cli, spec)})[0];
  std::printf("%s\n", result.c_str());
  return study.close() ? 0 : 1;
}

int cmd_sweep(Cli& cli) {
  if (!cli.checkpoint_at.empty() || !cli.spec.restore_from.empty()) {
    // Every sweep point has a different machine config, and a checkpoint
    // only restores onto the exact capturing config; one shared path would
    // either be overwritten per point or refuse every restore.
    std::cerr << "ksrsim sweep: --checkpoint-at/--restore-from are "
                 "kernel-command flags (one machine per file); use "
                 "`ksrsim kernel --name is` or bench_fig8_speedup "
                 "--warm-start for checkpointed sweeps\n";
    return 1;
  }
  const std::vector<unsigned>& procs = cli.sweep_procs;
  // Every processor count is an independent simulation, one job each over
  // --jobs host threads (default one per core). Results merge in
  // submission order, so the table is bit-identical for any --jobs value.
  std::vector<std::function<std::string(study::Job&)>> jobs;
  for (unsigned p : procs) {
    jobs.push_back(kernel_job(cli, checked_spec(cli, p)));
  }
  study::Study study(cli.run, "ksrsim_sweep");
  const std::vector<std::string> results = study.run(jobs);
  std::vector<std::pair<unsigned, double>> measured;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::string err;
    const serve::Json result = serve::Json::parse(results[i], &err);
    measured.emplace_back(procs[i], result.find("seconds")->as_double());
  }
  study::TextTable t({"procs", "time (s)", "speedup", "efficiency",
                      "serial fraction"});
  for (const auto& row : study::scaling_rows(measured)) {
    t.add_row({std::to_string(row.p), study::TextTable::num(row.seconds, 5),
               study::TextTable::num(row.speedup, 3),
               row.p == 1 ? "-" : study::TextTable::num(row.efficiency, 3),
               row.p == 1 ? "-"
                          : study::TextTable::num(row.serial_fraction, 6)});
  }
  std::printf("%s scaling sweep:\n", cli.spec.workload.c_str());
  if (cli.run.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  return study.close() ? 0 : 1;
}

// ----------------------------------------------------- serving commands

int cmd_serve(Cli& cli) {
  serve::SocketServer::Options opt;
  opt.socket_path = cli.socket;
  opt.core.store_dir = cli.store;
  opt.core.jobs = cli.run.jobs;
  opt.core.sim_threads = cli.run.sim_threads;
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
  const std::string& metrics_csv = cli.run.obs.metrics_csv;
  if (!metrics_csv.empty()) {
    // Same counter,value CSV shape as the obs metrics exporter.
    std::ostringstream os;
    server.core().write_stats_csv(os);
    ckpt::atomic_write_file(metrics_csv, os.str());
  }
  return 0;
}

int cmd_submit(Cli& cli) {
  const std::string& op = cli.op;
  serve::Client client(cli.socket);
  std::string req;
  if (op == "submit") {
    serve::Json j = serve::Json::object();
    j.set("op", serve::Json::str("submit"));
    j.set("job", cli.spec.to_json());
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

int cmd_campaign(Cli& cli) {
  const std::string& manifest_path = cli.manifest;
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
  copt.store_dir = cli.store;
  copt.jobs = cli.run.jobs;
  copt.sim_threads = cli.run.sim_threads;
  serve::ServeCore core(copt);
  const std::string prefix = cli.out.empty() ? campaign.name : cli.out;
  const serve::CampaignOutcome outcome =
      run_campaign(campaign, core, prefix);
  return outcome.failures == 0 ? 0 : 1;
}

int cmd_help() {
  // The kernel vocabulary and size defaults come from the workload
  // registry, the flag spellings from the spec's rows.
  Cli cli;
  const std::vector<util::Flag> spec_rows = cli.spec.flags();
  std::string names;
  std::string sizes;
  for (const serve::Workload& w : serve::workloads()) {
    names += std::string(names.empty() ? "" : "|") + w.name;
    sizes += std::string("  ") + w.name + " ";
    for (const serve::Workload::Size& size : w.sizes) {
      const util::Flag::Target field = &(cli.spec.*size.member);
      const auto row = std::find_if(
          spec_rows.begin(), spec_rows.end(),
          [&](const util::Flag& f) { return f.target == field; });
      sizes += " --" + row->name + " " + std::to_string(size.value);
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
      "                                       --jobs N]\n"
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
      "Flags take --k v or --k=v; bool flags never take a value; unknown\n"
      "or malformed flags warn and keep the default. Results are\n"
      "bit-identical for any --jobs and --sim-threads (docs/PARALLEL.md).");
  std::printf("\nrun flags:\n%s", util::flag_help(cli.tool_rows()).c_str());
  std::printf("\nmachine and kernel flags (the serve job fields):\n%s",
              util::flag_help(spec_rows).c_str());
  std::printf(
      "\nobservability (docs/OBSERVABILITY.md; never perturbs simulated "
      "time):\n%s",
      util::flag_help(cli.run.obs.flags()).c_str());
  std::printf("\nkernel sizes (0 = the default shown):\n%s", sizes.c_str());
  return 0;
}

struct Command {
  const char* name;
  int (*run)(Cli& cli);
  unsigned procs;  // --procs default
};

constexpr Command kCommands[] = {
    {"probe", &cmd_probe, 2},   {"barrier", &cmd_barrier, 16},
    {"lock", &cmd_lock, 8},     {"kernel", &cmd_kernel, 8},
    {"sweep", &cmd_sweep, 8},   {"serve", &cmd_serve, 8},
    {"submit", &cmd_submit, 8}, {"campaign", &cmd_campaign, 8},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "help" : argv[1];
  const auto c = std::find_if(std::begin(kCommands), std::end(kCommands),
                              [&](const Command& k) { return cmd == k.name; });
  if (c == std::end(kCommands)) return cmd_help();
  Cli cli;
  cli.spec.procs = c->procs;
  std::vector<util::Flag> rows = cli.rows();
  if (c->run == &cmd_sweep) {
    // sweep takes a list of processor counts, one simulation each.
    for (util::Flag& f : rows) {
      if (f.name == "procs") f.target = &cli.sweep_procs;
    }
  }
  // Fail-soft: a typo warns and the run goes on with the defaults.
  (void)util::parse_flags(argc, argv, 2, rows,
                          c->run == &cmd_campaign ? &cli.manifest : nullptr);
  try {
    const int rc = c->run(cli);
    return g_check_failed && rc == 0 ? 1 : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksrsim: %s\n", e.what());
    return 1;
  }
}
