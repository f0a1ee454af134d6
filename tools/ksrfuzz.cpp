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
// Everything is a pure function of the seed: a failure replays exactly with
//   ksrfuzz --workload <w> --procs <p> --seed-base <seed> --seeds 1
// and the same seed reproduces the same schedule in any build mode (the
// checker hooks never schedule events). In a -DKSR_CHECK=ON build every
// coherence transition is audited as it commits; in a default build the
// checker still audits the complete machine state at end of run.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/machine/coherent_machine.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/obs/analyze.hpp"
#include "ksr/obs/tracer.hpp"
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
  unsigned procs = 8;
  bool verbose = false;
  // Outcomes — events, checker stats, semantic results — are bit-identical
  // for any --sim-threads, so a failure found at one thread count replays
  // at any other.
  unsigned sim_threads = 1;
  unsigned cells_per_leaf = 0;    // 0 keeps the ksr1 preset
  unsigned cells_per_domain = 0;  // 0 = one domain
  std::string checkpoint_at;      // IS: donor checkpoint path prefix
  std::string restore_from;       // IS: restore instead of warming up
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
        {"procs", &procs, "P  simulated cells (default 8)", 1, 1088},
        {"sim-threads", &sim_threads, "T  host threads per simulation", 0,
         1024},
        {"cells-per-leaf", &cells_per_leaf, "C  cells per leaf ring", 0, 64},
        {"cells-per-domain", &cells_per_domain,
         "D  cells per simulation domain", 0, 1088},
        {"verbose", &verbose, "one line per passing seed"},
        {"checkpoint-at", &checkpoint_at,
         "PREFIX  is: checkpoint warm-ups to PREFIX.s<seed>.ckpt"},
        {"restore-from", &restore_from,
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
  bool ok = true;
  std::string detail;             // failure diagnostic when !ok
  std::uint64_t events = 0;       // whole-machine events (determinism)
  std::string ckpt_file;          // checkpoint written by this run, if any
  check::InvariantChecker::Stats stats;
  std::unique_ptr<obs::Tracer> tracer;   // --trace/--report: the run's trace
  std::vector<obs::RegionSpan> regions;  // heap map for report name lookup
};

std::unique_ptr<obs::Tracer> make_fuzz_tracer(const Options& o) {
  if (!o.trace && !o.report) return nullptr;
  auto t = std::make_unique<obs::Tracer>(std::size_t{1} << 18);
  t->set_enabled_categories(o.trace_cats);
  return t;
}

// Capture the trace-support state that dies with the machine (the heap's
// region map); call while the machine is still alive.
void capture_obs(RunOutcome& out, machine::Machine& m) {
  if (!out.tracer) return;
  const mem::Heap& h = m.heap();
  out.regions.reserve(h.region_count());
  for (std::size_t i = 0; i < h.region_count(); ++i) {
    const mem::Region& r = h.region(i);
    out.regions.push_back({r.base, r.bytes, r.name});
  }
}

// On FAIL: dump the violating run's trace/report files and return the text
// naming them for the FAIL block.
std::string write_fail_obs(const Options& o, const RunOutcome& out,
                           const std::string& w, std::uint64_t seed) {
  if (!out.tracer) return {};
  std::string text;
  const std::string stem =
      o.trace_out + "." + w + ".s" + std::to_string(seed);
  if (o.trace) {
    const std::string path = stem + ".trace.csv";
    std::ofstream os(path);
    out.tracer->write_csv(os);
    for (const obs::RegionSpan& reg : out.regions) {
      os << "# region base=" << reg.base << " bytes=" << reg.bytes
         << " name=" << reg.name << '\n';
    }
    text += "trace: " + path + "\n";
  }
  if (o.report) {
    const std::string path = stem + ".report.txt";
    std::ofstream os(path);
    obs::write_report(os, obs::analyze(*out.tracer, out.regions));
    text += "report: " + path + "\n";
  }
  return text;
}

// One machine per run: fresh caches, fresh directory, fresh heap, and the
// seed folded into both the event tie-breaking and the ring phases — the
// ksr1 preset, as a served job of this spec would build it.
serve::JobSpec fuzz_spec(const Options& o, std::uint64_t seed) {
  serve::JobSpec spec;
  spec.procs = o.procs;
  spec.fuzz_seed = seed;
  spec.cells_per_leaf = o.cells_per_leaf;
  spec.cells_per_domain = o.cells_per_domain;
  return spec;
}

std::unique_ptr<machine::Machine> make_fuzz_machine(
    const Options& o, const serve::JobSpec& spec) {
  return machine::make_machine(spec.machine_config(o.sim_threads));
}

// Fig. 3 style: every cell hammers one hardware lock (get_subpage /
// release_subpage) and increments a shared counter under it. The Atomic
// state, NACK-and-retry, and owner migration paths all light up. Semantic
// check: the counter ends at exactly procs * ops.
RunOutcome run_locks(const Options& o, std::uint64_t seed) {
  RunOutcome out;
  const unsigned procs = o.procs;
  auto m = make_fuzz_machine(o, fuzz_spec(o, seed));
  auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
  check::InvariantChecker checker(cm);
  cm.attach_checker(&checker);
  out.tracer = make_fuzz_tracer(o);
  if (out.tracer) m->attach_tracer(out.tracer.get());

  constexpr std::uint32_t kOps = 24;
  sync::HardwareLock lock(*m, "fuzz.lock");
  sync::Padded<std::uint32_t> counter(*m, "fuzz.counter", 1);

  try {
    m->run([&](machine::Cpu& cpu) {
      for (std::uint32_t i = 0; i < kOps; ++i) {
        lock.acquire(cpu);
        counter.write(cpu, 0, counter.read(cpu, 0) + 1);
        lock.release(cpu);
        cpu.work(cpu.rng().below(800));
      }
    });
    checker.audit_all();
  } catch (const check::ViolationError& e) {
    out.ok = false;
    out.detail = e.what();
  }
  const std::uint32_t want = static_cast<std::uint32_t>(procs) * kOps;
  if (out.ok && counter.value(0) != want) {
    out.ok = false;
    out.detail = "semantic: lock-protected counter ended at " +
                 std::to_string(counter.value(0)) + ", expected " +
                 std::to_string(want) + " (lost update under HardwareLock)";
  }
  capture_obs(out, *m);
  out.events = m->parallel_engine().events_dispatched();
  out.stats = checker.stats();
  return out;
}

// Fig. 4 style: barrier episodes with a cross-check that the barrier
// actually separates them. Before episode e every cell publishes e in its
// own sub-page-padded slot; after the barrier every cell reads all slots and
// demands agreement; a second barrier closes the read phase before anyone
// starts episode e+1. The MCS(M) kind uses the intentionally false-shared
// packed flag word plus a poststore wake-up flag, the two riskiest protocol
// paths the barrier suite has.
RunOutcome run_barriers(const Options& o, std::uint64_t seed) {
  RunOutcome out;
  const unsigned procs = o.procs;
  auto m = make_fuzz_machine(o, fuzz_spec(o, seed));
  auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
  check::InvariantChecker checker(cm);
  cm.attach_checker(&checker);
  out.tracer = make_fuzz_tracer(o);
  if (out.tracer) m->attach_tracer(out.tracer.get());

  constexpr std::uint32_t kEpisodes = 12;
  auto barrier = sync::make_barrier(*m, sync::BarrierKind::kMcsM);
  sync::Padded<std::uint32_t> slots(*m, "fuzz.slots", procs);
  std::string mismatch;  // cells run as fibers, one at a time: plain is fine

  try {
    m->run([&](machine::Cpu& cpu) {
      const std::size_t me = cpu.id();
      for (std::uint32_t e = 1; e <= kEpisodes; ++e) {
        cpu.work(cpu.rng().below(500));
        slots.write(cpu, me, e);
        barrier->arrive(cpu);
        for (unsigned j = 0; j < procs; ++j) {
          const std::uint32_t v = slots.read(cpu, j);
          if (v != e && mismatch.empty()) {
            mismatch = "semantic: after barrier episode " +
                       std::to_string(e) + " cpu " + std::to_string(me) +
                       " read slot[" + std::to_string(j) + "] = " +
                       std::to_string(v) + " (barrier admitted a straggler)";
          }
        }
        barrier->arrive(cpu);
      }
    });
    checker.audit_all();
  } catch (const check::ViolationError& e) {
    out.ok = false;
    out.detail = e.what();
  }
  if (out.ok && !mismatch.empty()) {
    out.ok = false;
    out.detail = mismatch;
  }
  capture_obs(out, *m);
  out.events = m->parallel_engine().events_dispatched();
  out.stats = checker.stats();
  return out;
}

// NAS IS, class S sized down for a 32-seed smoke run, through the serve
// workload registry: the bucket histogram phase is all read-modify-write
// sharing, the ranking phase is lock plus barrier plus prefetch traffic.
// Caches are scaled down with the problem (as the NAS smoke tests do) so
// the run also fuzzes capacity evictions (kPageEvict) and re-fetch paths.
// Semantic check: the kernel verifies the final ranks (ranks_valid).
//
// --checkpoint-at runs the warm-up on a donor machine (audited by its own
// checker), writes <prefix>.s<seed>.ckpt at the boundary, and runs the
// contended ranking phases restored from it; a FAIL replay line then
// restores from just before those phases instead of from cold.
RunOutcome run_is(const Options& o, std::uint64_t seed) {
  RunOutcome out;
  serve::JobSpec spec = fuzz_spec(o, seed);
  spec.workload = "is";
  spec.scale = 64;
  spec.log2_keys = 11;
  spec.log2_buckets = 7;
  spec.restore_from = o.restore_from;
  auto m = make_fuzz_machine(o, spec);
  auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
  check::InvariantChecker checker(cm);
  cm.attach_checker(&checker);
  out.tracer = make_fuzz_tracer(o);
  if (out.tracer) m->attach_tracer(out.tracer.get());

  try {
    if (!o.checkpoint_at.empty()) {
      auto donor = make_fuzz_machine(o, spec);
      auto& dcm = dynamic_cast<machine::CoherentMachine&>(*donor);
      check::InvariantChecker donor_checker(dcm);
      dcm.attach_checker(&donor_checker);
      serve::run_warmup(spec, *donor);
      donor_checker.audit_all();
      out.stats = donor_checker.stats();
      out.ckpt_file = o.checkpoint_at + ".s" + std::to_string(seed) + ".ckpt";
      donor->checkpoint_to(out.ckpt_file);
      spec.restore_from = out.ckpt_file;
    }
    const serve::JobOutcome res = serve::run_workload(spec, *m);
    std::string err;
    const serve::Json result = serve::Json::parse(res.result, &err);
    const serve::Json* valid = result.find("ranks_valid");
    if (valid == nullptr || !valid->as_bool()) {
      out.ok = false;
      out.detail = "semantic: IS full_verify failed (ranks out of order)";
    }
    checker.audit_all();
  } catch (const check::ViolationError& e) {
    out.ok = false;
    out.detail = e.what();
  } catch (const std::exception& e) {
    // Checkpoint I/O or restore validation failure — report, don't abort
    // the whole seed sweep.
    out.ok = false;
    out.detail = e.what();
  }
  capture_obs(out, *m);
  out.events = m->parallel_engine().events_dispatched();
  out.stats.transitions += checker.stats().transitions;
  out.stats.audits += checker.stats().audits;
  return out;
}

RunOutcome run_workload(const Options& o, const std::string& w,
                        std::uint64_t seed) {
  if (w == "locks") return run_locks(o, seed);
  if (w == "barriers") return run_barriers(o, seed);
  return run_is(o, seed);
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
      "plus --restore-from when --checkpoint-at captured the seed).\n"
      "\n%s",
      argv0, util::flag_help(defaults.flags()).c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!util::parse_flags(argc, argv, 1, opt.flags())) return usage(argv[0]);

  std::vector<std::string> workloads;
  if (opt.workload == "all") {
    workloads = {"locks", "barriers", "is"};
  } else if (opt.workload == "locks" || opt.workload == "barriers" ||
             opt.workload == "is") {
    workloads = {opt.workload};
  } else {
    return usage(argv[0]);
  }

  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t transitions = 0;
  std::uint64_t audits = 0;
  for (const std::string& w : workloads) {
    for (std::uint64_t k = 0; k < opt.seeds; ++k) {
      const std::uint64_t seed = opt.seed_base + k;
      const RunOutcome out = run_workload(opt, w, seed);
      ++runs;
      transitions += out.stats.transitions;
      audits += out.stats.audits;
      if (!out.ok) {
        ++failures;
        std::string topo;  // non-default topology knobs, for exact replay
        if (opt.cells_per_leaf != 0) {
          topo += " --cells-per-leaf " + std::to_string(opt.cells_per_leaf);
        }
        if (opt.cells_per_domain != 0) {
          topo +=
              " --cells-per-domain " + std::to_string(opt.cells_per_domain);
        }
        if (!out.ckpt_file.empty()) {
          // Replay from just before the contended phases: the checkpoint
          // captured at this seed's warm-up boundary.
          topo += " --restore-from " + out.ckpt_file;
        }
        const std::string obs_files = write_fail_obs(opt, out, w, seed);
        std::fprintf(stderr,
                     "FAIL workload=%s seed=%" PRIu64 " procs=%u\n%s\n"
                     "%s"
                     "replay: ksrfuzz --workload %s --procs %u "
                     "--seed-base %" PRIu64 " --seeds 1%s\n",
                     w.c_str(), seed, opt.procs, out.detail.c_str(),
                     obs_files.c_str(),
                     w.c_str(), opt.procs, seed, topo.c_str());
      } else if (opt.verbose) {
        std::fprintf(stdout,
                     "ok workload=%s seed=%" PRIu64 " procs=%u events=%" PRIu64
                     " transitions=%" PRIu64 " audits=%" PRIu64 "\n",
                     w.c_str(), seed, opt.procs, out.events,
                     out.stats.transitions, out.stats.audits);
      }
    }
  }

  std::fprintf(stdout,
               "ksrfuzz: %" PRIu64 " runs (%zu workloads x %" PRIu64
               " seeds, procs=%u, hooks %s), %" PRIu64
               " failures, transitions=%" PRIu64 " audits=%" PRIu64 "\n",
               runs, workloads.size(), opt.seeds, opt.procs,
               check::kHooksCompiled ? "compiled-in" : "end-of-run only",
               failures, transitions, audits);
  return failures == 0 ? 0 : 1;
}
