// ksrfuzz — deterministic schedule fuzzer for the ALLCACHE protocol.
//
// The simulator's event engine breaks same-time ties by insertion order and
// the rings start at the paper's phase alignment, so every run explores one
// schedule. This tool perturbs both (MachineConfig::sched_fuzz_seed seeds a
// bijective hash over the tie-break order and rotates each ring's slot
// phase), runs the contended workloads the paper measures — Fig. 3 style
// lock ping-pong, Fig. 4 style barrier episodes, NAS IS class S — with the
// invariant checker attached (docs/CHECKING.md), and verifies both the
// protocol invariants and the workload's semantic result (lock counter
// total, barrier episode agreement, IS ranking validity).
//
// Everything is a pure function of the run's serve::JobSpec, seed included:
// a FAIL prints the replay line built from the spec it ran,
//   ksrfuzz --workload <w> --procs <p> --seed-base <seed> --seeds 1 [...]
// and the same seed reproduces the same schedule in any build mode (the
// checker hooks never schedule events). In a -DKSR_CHECK=ON build every
// coherence transition is audited as it commits; in a default build the
// checker still audits the complete machine state at end of run.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/serve/job.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"
#include "ksr/sync/padded.hpp"
#include "ksr/util/flags.hpp"

namespace {

using namespace ksr;

// Every knob, one flag row each (ksr/util/flags.hpp). ksrfuzz is strict:
// an unknown flag or a malformed or out-of-range value prints the usage.
struct Options {
  std::string workload = "all";  // locks | barriers | is | all
  std::uint64_t seeds = 32;      // number of consecutive seeds to run
  std::uint64_t seed_base = 1;   // first seed (0 is the reference schedule)
  // The machine rows bind straight to the spec every run copies and folds
  // its seed into: the ksr1 preset at --procs cells (default 8), the
  // topology knobs (0 = preset, one domain) and is's --restore-from.
  serve::JobSpec spec;
  bool verbose = false;
  // Outcomes — events, checker stats, semantic results — are bit-identical
  // for any --sim-threads, so a failure found at one thread count replays
  // at any other.
  unsigned sim_threads = 1;
  std::string checkpoint_at;  // IS: donor checkpoint path prefix
  // Observability on failure (docs/OBSERVABILITY.md): tracing never
  // perturbs the schedule, so the replay line stays valid either way.
  bool trace = false;
  bool report = false;
  std::string trace_cats;             // category filter; empty = all
  std::string trace_out = "ksrfuzz";  // output path prefix

  std::vector<util::Flag> flags() {
    return {
        {"workload", &workload, "W  locks|barriers|is|all (default all)"},
        {"seeds", &seeds, "N  consecutive seeds per workload (default 32)"},
        {"seed-base", &seed_base, "S  first seed (default 1)"},
        {"procs", &spec.procs, "P  simulated cells (default 8)", 1, 1088},
        {"sim-threads", &sim_threads, "T  host threads per simulation", 0,
         1024},
        {"cells-per-leaf", &spec.cells_per_leaf, "C  cells per leaf ring", 0,
         64},
        {"cells-per-domain", &spec.cells_per_domain,
         "D  cells per simulation domain", 0, 1088},
        {"verbose", &verbose, "one line per passing seed"},
        {"checkpoint-at", &checkpoint_at,
         "PREFIX  is: checkpoint warm-ups to PREFIX.s<seed>.ckpt"},
        {"restore-from", &spec.restore_from,
         "FILE  is: restore FILE instead of warming up (--seeds 1)"},
        {"trace", &trace, "on FAIL, write PREFIX.<w>.s<seed>.trace.csv"},
        {"trace-cats", &trace_cats, "C,...  trace categories (default all)"},
        {.name = "trace-out",
         .target = &trace_out,
         .help = "PREFIX  FAIL output prefix (default ksrfuzz)",
         .seen = &trace},
        {"report", &report, "on FAIL, write PREFIX.<w>.s<seed>.report.txt"},
    };
  }
};

struct RunOutcome {
  std::string detail;        // failure diagnostic; empty when the run passed
  std::uint64_t events = 0;  // whole-machine events (determinism)
  check::InvariantChecker::Stats stats;
  serve::JobSpec spec;  // the spec the run used: the replay line's source
};

// Fig. 3 style: every cell hammers one hardware lock (get_subpage /
// release_subpage) and increments a shared counter under it. The Atomic
// state, NACK-and-retry, and owner migration paths all light up. Semantic
// check: the counter ends at exactly procs * ops.
std::string run_locks(const Options&, machine::Machine& m, RunOutcome&) {
  constexpr std::uint32_t kOps = 24;
  sync::HardwareLock lock(m, "fuzz.lock");
  sync::Padded<std::uint32_t> counter(m, "fuzz.counter", 1);

  m.run([&](machine::Cpu& cpu) {
    for (std::uint32_t i = 0; i < kOps; ++i) {
      lock.acquire(cpu);
      counter.write(cpu, 0, counter.read(cpu, 0) + 1);
      lock.release(cpu);
      cpu.work(cpu.rng().below(800));
    }
  });
  const std::uint32_t want = m.nproc() * kOps;
  if (counter.value(0) == want) return {};
  return "semantic: lock-protected counter ended at " +
         std::to_string(counter.value(0)) + ", expected " +
         std::to_string(want) + " (lost update under HardwareLock)";
}

// Fig. 4 style: barrier episodes with a cross-check that the barrier
// actually separates them. Before episode e every cell publishes e in its
// own sub-page-padded slot; after the barrier every cell reads all slots and
// demands agreement; a second barrier closes the read phase before anyone
// starts episode e+1. The MCS(M) kind uses the intentionally false-shared
// packed flag word plus a poststore wake-up flag, the two riskiest protocol
// paths the barrier suite has.
std::string run_barriers(const Options&, machine::Machine& m, RunOutcome&) {
  const unsigned procs = m.nproc();
  constexpr std::uint32_t kEpisodes = 12;
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kMcsM);
  sync::Padded<std::uint32_t> slots(m, "fuzz.slots", procs);
  std::string mismatch;  // cells run as fibers, one at a time: plain is fine

  m.run([&](machine::Cpu& cpu) {
    const std::size_t me = cpu.id();
    for (std::uint32_t e = 1; e <= kEpisodes; ++e) {
      cpu.work(cpu.rng().below(500));
      slots.write(cpu, me, e);
      barrier->arrive(cpu);
      for (unsigned j = 0; j < procs; ++j) {
        const std::uint32_t v = slots.read(cpu, j);
        if (v != e && mismatch.empty()) {
          mismatch = "semantic: after barrier episode " + std::to_string(e) +
                     " cpu " + std::to_string(me) + " read slot[" +
                     std::to_string(j) + "] = " + std::to_string(v) +
                     " (barrier admitted a straggler)";
        }
      }
      barrier->arrive(cpu);
    }
  });
  return mismatch;
}

// NAS IS, class S sized down for a 32-seed smoke run, through the serve
// workload registry: the bucket histogram phase is all read-modify-write
// sharing, the ranking phase is lock plus barrier plus prefetch traffic.
// Caches are scaled down with the problem (as the NAS smoke tests do) so
// the run also fuzzes capacity evictions (kPageEvict) and re-fetch paths.
// Semantic check: the kernel verifies the final ranks (ranks_valid).
//
// --checkpoint-at runs the warm-up on a donor machine (audited by its own
// checker scope), writes <prefix>.s<seed>.ckpt at the boundary, and runs
// the contended ranking phases restored from it; the spec then names that
// checkpoint, so a FAIL replay restores from just before those phases
// instead of from cold.
void is_spec(serve::JobSpec& spec) {
  spec.workload = "is";
  spec.scale = 64;
  spec.log2_keys = 11;
  spec.log2_buckets = 7;
}

std::string run_is(const Options& o, machine::Machine& m, RunOutcome& out) {
  serve::JobSpec& spec = out.spec;
  if (!o.checkpoint_at.empty()) {
    auto donor = machine::make_machine(spec.machine_config(o.sim_threads));
    check::Scope donor_check(*donor);
    serve::run_warmup(spec, *donor);
    const check::Scope::Outcome audit = donor_check.audit();
    out.stats = audit.stats;
    if (!audit.violation.empty()) return audit.violation;
    const std::string ckpt =
        o.checkpoint_at + ".s" + std::to_string(spec.fuzz_seed) + ".ckpt";
    donor->checkpoint_to(ckpt);
    spec.restore_from = ckpt;
  }
  const serve::JobOutcome res = serve::run_workload(spec, m);
  std::string err;
  const serve::Json result = serve::Json::parse(res.result, &err);
  const serve::Json* valid = result.find("ranks_valid");
  if (valid != nullptr && valid->as_bool()) return {};
  return "semantic: IS full_verify failed (ranks out of order)";
}

struct Workload {
  const char* name;
  void (*shape)(serve::JobSpec& spec);  // its spec fields; null: none
  // Runs the workload on a machine built from out.spec and returns its
  // semantic failure, or "" when the result checks out.
  std::string (*run)(const Options& o, machine::Machine& m, RunOutcome& out);
};

constexpr Workload kWorkloads[] = {
    {"locks", nullptr, &run_locks},
    {"barriers", nullptr, &run_barriers},
    {"is", &is_spec, &run_is},
};

/// The command that replays a run exactly: the flags of the spec it ran.
std::string replay_line(const char* workload, const serve::JobSpec& spec) {
  std::string line = std::string("ksrfuzz --workload ") + workload +
                     " --procs " + std::to_string(spec.procs) +
                     " --seed-base " + std::to_string(spec.fuzz_seed) +
                     " --seeds 1";
  if (spec.cells_per_leaf != 0) {
    line += " --cells-per-leaf " + std::to_string(spec.cells_per_leaf);
  }
  if (spec.cells_per_domain != 0) {
    line += " --cells-per-domain " + std::to_string(spec.cells_per_domain);
  }
  if (!spec.restore_from.empty()) {
    line += " --restore-from " + spec.restore_from;
  }
  return line;
}

// One seed of one workload, the lifecycle every run shares: build the
// spec's machine, attach the run's observability and a check::Scope, run
// the body, audit. A failing run prints its FAIL report and collects its
// observability, so the session writes PREFIX.<w>.s<seed>.trace.csv and
// .report.txt; a passing run is never collected and writes nothing.
RunOutcome run_seed(const Options& o, const Workload& w, std::uint64_t seed) {
  RunOutcome out;
  out.spec = o.spec;
  out.spec.fuzz_seed = seed;
  if (w.shape != nullptr) w.shape(out.spec);
  const std::string label = std::string(w.name) + ".s" + std::to_string(seed);
  obs::SessionOptions fail_obs;
  fail_obs.trace = o.trace;
  fail_obs.categories = o.trace_cats;
  fail_obs.trace_out = o.trace_out + "." + label + ".trace.csv";
  if (o.report) fail_obs.report = o.trace_out + "." + label + ".report.txt";
  obs::Session session(fail_obs, "ksrfuzz");
  obs::JobObs obs = session.job();
  {
    const auto m =
        machine::make_machine(out.spec.machine_config(o.sim_threads));
    obs.attach(*m);
    check::Scope check(*m);
    try {
      const std::string semantic = w.run(o, *m, out);
      const check::Scope::Outcome audit = check.audit();
      out.detail = audit.violation.empty() ? semantic : audit.violation;
    } catch (const std::exception& e) {
      // A per-transition violation, or a checkpoint I/O or restore failure:
      // report it, don't abort the whole seed sweep.
      out.detail = e.what();
    }
    out.stats.transitions += check.stats().transitions;
    out.stats.audits += check.stats().audits;
    obs.finish();
    out.events = m->parallel_engine().events_dispatched();
  }
  if (!out.detail.empty()) {
    std::fprintf(stderr, "FAIL workload=%s seed=%" PRIu64 " procs=%u\n%s\n",
                 w.name, seed, out.spec.procs, out.detail.c_str());
    session.collect(std::move(obs), label);
    session.close();  // names the files it wrote on stderr
    std::fprintf(stderr, "replay: %s\n",
                 replay_line(w.name, out.spec).c_str());
  }
  return out;
}

int usage(const char* argv0) {
  Options defaults;
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "\n"
      "Runs N consecutive schedule seeds (S, S+1, ...) of each workload on\n"
      "a KSR-1 machine with the ALLCACHE invariant checker attached.\n"
      "Seed 0 is the reference schedule the published fingerprints use;\n"
      "every nonzero seed is a distinct, exactly reproducible schedule.\n"
      "A FAIL prints its exact replay command (--seed-base <seed> --seeds 1,\n"
      "plus the topology and the --restore-from checkpoint the run used).\n"
      "\n%s",
      argv0, util::flag_help(defaults.flags()).c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!util::parse_flags(argc, argv, 1, opt.flags())) return usage(argv[0]);

  std::vector<const Workload*> workloads;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == "all" || opt.workload == w.name) {
      workloads.push_back(&w);
    }
  }
  if (workloads.empty()) return usage(argv[0]);

  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t transitions = 0;
  std::uint64_t audits = 0;
  for (const Workload* w : workloads) {
    for (std::uint64_t k = 0; k < opt.seeds; ++k) {
      const std::uint64_t seed = opt.seed_base + k;
      const RunOutcome out = run_seed(opt, *w, seed);
      ++runs;
      transitions += out.stats.transitions;
      audits += out.stats.audits;
      if (!out.detail.empty()) {
        ++failures;
      } else if (opt.verbose) {
        std::fprintf(stdout,
                     "ok workload=%s seed=%" PRIu64 " procs=%u events=%" PRIu64
                     " transitions=%" PRIu64 " audits=%" PRIu64 "\n",
                     w->name, seed, opt.spec.procs, out.events,
                     out.stats.transitions, out.stats.audits);
      }
    }
  }

  std::fprintf(stdout,
               "ksrfuzz: %" PRIu64 " runs (%zu workloads x %" PRIu64
               " seeds, procs=%u, hooks %s), %" PRIu64
               " failures, transitions=%" PRIu64 " audits=%" PRIu64 "\n",
               runs, workloads.size(), opt.seeds, opt.spec.procs,
               check::kHooksCompiled ? "compiled-in" : "end-of-run only",
               failures, transitions, audits);
  return failures == 0 ? 0 : 1;
}
