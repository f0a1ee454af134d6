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
#include "ksr/nas/is.hpp"
#include "ksr/obs/analyze.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/serve/job.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"
#include "ksr/sync/padded.hpp"
#include "ksr/util/parse.hpp"

namespace {

using namespace ksr;

struct Options {
  std::string workload = "all";  // locks | barriers | is | all
  std::uint64_t seeds = 32;      // number of consecutive seeds to run
  std::uint64_t seed_base = 1;   // first seed (0 is the reference schedule)
  unsigned procs = 8;
  bool verbose = false;
};

// Host threads per simulation (--sim-threads, docs/PARALLEL.md). Outcomes —
// events, checker stats, semantic results — are bit-identical for any value,
// so a failure found at one thread count replays at any other.
unsigned g_sim_threads = 1;

// Ring-hierarchy shape overrides (--cells-per-leaf / --cells-per-domain,
// docs/PARALLEL.md): 0 keeps the ksr1 preset. Multi-ring and multi-domain
// coherent shapes exercise the sharded-directory and boundary-channel
// paths under the checker.
unsigned g_cells_per_leaf = 0;
unsigned g_cells_per_domain = 0;

// Checkpointing for the IS workload (docs/CHECKPOINT.md). --checkpoint-at P
// switches IS to the split-phase kernel and writes <P>.s<seed>.ckpt at the
// warm-up boundary of every seed; a FAIL replay line then includes
// --restore-from so the violating schedule replays from just before the
// contended ranking phases instead of from cold. --restore-from FILE skips
// the warm-up by restoring (same --procs/--sim-threads/seed required; use
// with --seeds 1).
std::string g_checkpoint_at;
std::string g_restore_from;

// Observability on failure (--trace / --report, docs/OBSERVABILITY.md):
// every run carries a tracer, and when a seed FAILs its trace of the
// violating schedule is written to <prefix>.<workload>.s<seed>.trace.csv
// (and/or a ksrprof profile to ....report.txt) so the diagnostic window is
// captured without re-running. Tracing never perturbs the schedule, so the
// replay line stays valid with or without these flags.
bool g_trace = false;
bool g_report = false;
std::string g_trace_cats;            // category filter; empty = all
std::string g_trace_out = "ksrfuzz"; // output path prefix

struct RunOutcome {
  bool ok = true;
  std::string detail;             // failure diagnostic when !ok
  std::uint64_t events = 0;       // whole-machine events (determinism)
  std::string ckpt_file;          // checkpoint written by this run, if any
  check::InvariantChecker::Stats stats;
  std::unique_ptr<obs::Tracer> tracer;   // --trace/--report: the run's trace
  std::vector<obs::RegionSpan> regions;  // heap map for report name lookup
};

std::unique_ptr<obs::Tracer> make_fuzz_tracer() {
  if (!g_trace && !g_report) return nullptr;
  auto t = std::make_unique<obs::Tracer>(std::size_t{1} << 18);
  t->set_enabled_categories(g_trace_cats);
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
std::string write_fail_obs(const RunOutcome& out, const std::string& w,
                           std::uint64_t seed) {
  if (!out.tracer) return {};
  std::string text;
  const std::string stem =
      g_trace_out + "." + w + ".s" + std::to_string(seed);
  if (g_trace) {
    const std::string path = stem + ".trace.csv";
    std::ofstream os(path);
    out.tracer->write_csv(os);
    for (const obs::RegionSpan& reg : out.regions) {
      os << "# region base=" << reg.base << " bytes=" << reg.bytes
         << " name=" << reg.name << '\n';
    }
    text += "trace: " + path + "\n";
  }
  if (g_report) {
    const std::string path = stem + ".report.txt";
    std::ofstream os(path);
    obs::write_report(os, obs::analyze(*out.tracer, out.regions));
    text += "report: " + path + "\n";
  }
  return text;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr) return false;
  return util::parse_u64(s, out);
}

// One machine per run: fresh caches, fresh directory, fresh heap, and the
// seed folded into both the event tie-breaking and the ring phases.
std::unique_ptr<machine::Machine> make_fuzz_machine(std::uint64_t seed,
                                                    unsigned procs,
                                                    unsigned scale = 1) {
  serve::JobSpec spec;  // the ksr1 preset, as a served job would build it
  spec.procs = procs;
  spec.scale = scale;
  spec.fuzz_seed = seed;
  spec.cells_per_leaf = g_cells_per_leaf;
  spec.cells_per_domain = g_cells_per_domain;
  return machine::make_machine(spec.machine_config(g_sim_threads));
}

// Fig. 3 style: every cell hammers one hardware lock (get_subpage /
// release_subpage) and increments a shared counter under it. The Atomic
// state, NACK-and-retry, and owner migration paths all light up. Semantic
// check: the counter ends at exactly procs * ops.
RunOutcome run_locks(std::uint64_t seed, unsigned procs) {
  RunOutcome out;
  auto m = make_fuzz_machine(seed, procs);
  auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
  check::InvariantChecker checker(cm);
  cm.attach_checker(&checker);
  out.tracer = make_fuzz_tracer();
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
RunOutcome run_barriers(std::uint64_t seed, unsigned procs) {
  RunOutcome out;
  auto m = make_fuzz_machine(seed, procs);
  auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
  check::InvariantChecker checker(cm);
  cm.attach_checker(&checker);
  out.tracer = make_fuzz_tracer();
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

// NAS IS, class S sized down for a 32-seed smoke run: the bucket histogram
// phase is all read-modify-write sharing, the ranking phase is lock plus
// barrier plus prefetch traffic. Semantic check: run_is verifies the final
// ranks itself (ranks_valid).
RunOutcome run_is(std::uint64_t seed, unsigned procs) {
  RunOutcome out;
  // Caches scaled down with the problem (as the NAS smoke tests do) so the
  // run also fuzzes capacity evictions (kPageEvict) and re-fetch paths.
  auto m = make_fuzz_machine(seed, procs, /*scale=*/64);
  auto& cm = dynamic_cast<machine::CoherentMachine&>(*m);
  check::InvariantChecker checker(cm);
  cm.attach_checker(&checker);
  out.tracer = make_fuzz_tracer();
  if (out.tracer) m->attach_tracer(out.tracer.get());

  nas::IsConfig cfg;
  cfg.log2_keys = 11;
  cfg.log2_buckets = 7;

  try {
    nas::IsResult res;
    if (!g_checkpoint_at.empty() || !g_restore_from.empty()) {
      // Split-phase flow: checkpoint (or restore) at the warm-up boundary,
      // then run the contended ranking phases.
      nas::IsSplit split(*m, cfg);
      if (!g_restore_from.empty()) {
        m->restore_from(g_restore_from);
      } else {
        split.run_warmup();
        out.ckpt_file = g_checkpoint_at + ".s" + std::to_string(seed) +
                        ".ckpt";
        m->checkpoint_to(out.ckpt_file);
      }
      res = split.run_ranked();
    } else {
      res = nas::run_is(*m, cfg);
    }
    if (!res.ranks_valid) {
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
  out.stats = checker.stats();
  return out;
}

RunOutcome run_workload(const std::string& w, std::uint64_t seed,
                        unsigned procs) {
  if (w == "locks") return run_locks(seed, procs);
  if (w == "barriers") return run_barriers(seed, procs);
  return run_is(seed, procs);
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload locks|barriers|is|all] [--seeds N]\n"
      "          [--seed-base S] [--procs P] [--sim-threads T]\n"
      "          [--cells-per-leaf C] [--cells-per-domain D] [--verbose]\n"
      "          [--checkpoint-at PREFIX] [--restore-from FILE]\n"
      "          [--trace] [--trace-cats ring,coherence,sync,stall]\n"
      "          [--trace-out PREFIX] [--report]\n"
      "\n"
      "Runs N consecutive schedule seeds (S, S+1, ...) of each workload on\n"
      "a KSR-1 machine with the ALLCACHE invariant checker attached.\n"
      "Seed 0 is the reference schedule the published fingerprints use;\n"
      "every nonzero seed is a distinct, exactly reproducible schedule.\n"
      "\n"
      "Replay a failure: --workload <w> --procs <p> --seed-base <seed> "
      "--seeds 1\n"
      "\n"
      "--checkpoint-at PREFIX switches the IS workload to the split-phase\n"
      "kernel and writes PREFIX.s<seed>.ckpt at each seed's warm-up\n"
      "boundary; a FAIL replay line then includes --restore-from so the\n"
      "violating schedule replays from just before the contended phases.\n"
      "--restore-from FILE restores instead of warming up (same --procs /\n"
      "--sim-threads / seed as the capture; use --seeds 1).\n"
      "\n"
      "--trace captures a structured event trace of every run and, on a\n"
      "FAIL, writes the violating schedule's window to\n"
      "PREFIX.<workload>.s<seed>.trace.csv (PREFIX from --trace-out,\n"
      "default 'ksrfuzz'; --trace-cats filters categories). --report\n"
      "additionally writes a ksrprof profile to ....report.txt. Tracing\n"
      "never perturbs the schedule, so replay lines stay valid either way.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--workload" && val != nullptr) {
      opt.workload = val;
      ++i;
    } else if (a == "--seeds" && val != nullptr) {
      if (!parse_u64(val, &opt.seeds)) return usage(argv[0]);
      ++i;
    } else if (a == "--seed-base" && val != nullptr) {
      if (!parse_u64(val, &opt.seed_base)) return usage(argv[0]);
      ++i;
    } else if (a == "--procs" && val != nullptr) {
      std::uint64_t p = 0;
      if (!parse_u64(val, &p) || p == 0 || p > 1088) return usage(argv[0]);
      opt.procs = static_cast<unsigned>(p);
      ++i;
    } else if (a == "--sim-threads" && val != nullptr) {
      std::uint64_t t = 0;
      if (!parse_u64(val, &t) || t > 1024) return usage(argv[0]);
      g_sim_threads = static_cast<unsigned>(t);
      ++i;
    } else if (a == "--cells-per-leaf" && val != nullptr) {
      std::uint64_t c = 0;
      if (!parse_u64(val, &c) || c > 64) return usage(argv[0]);
      g_cells_per_leaf = static_cast<unsigned>(c);
      ++i;
    } else if (a == "--cells-per-domain" && val != nullptr) {
      std::uint64_t d = 0;
      if (!parse_u64(val, &d) || d > 1088) return usage(argv[0]);
      g_cells_per_domain = static_cast<unsigned>(d);
      ++i;
    } else if (a == "--checkpoint-at" && val != nullptr) {
      g_checkpoint_at = val;
      ++i;
    } else if (a == "--restore-from" && val != nullptr) {
      g_restore_from = val;
      ++i;
    } else if (a == "--trace") {
      g_trace = true;
    } else if (a == "--trace-cats" && val != nullptr) {
      g_trace_cats = val;
      ++i;
    } else if (a == "--trace-out" && val != nullptr) {
      g_trace = true;
      g_trace_out = val;
      ++i;
    } else if (a == "--report") {
      g_report = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

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
      const RunOutcome out = run_workload(w, seed, opt.procs);
      ++runs;
      transitions += out.stats.transitions;
      audits += out.stats.audits;
      if (!out.ok) {
        ++failures;
        std::string topo;  // non-default topology knobs, for exact replay
        if (g_cells_per_leaf != 0) {
          topo += " --cells-per-leaf " + std::to_string(g_cells_per_leaf);
        }
        if (g_cells_per_domain != 0) {
          topo += " --cells-per-domain " + std::to_string(g_cells_per_domain);
        }
        if (!out.ckpt_file.empty()) {
          // Replay from just before the contended phases: the checkpoint
          // captured at this seed's warm-up boundary.
          topo += " --restore-from " + out.ckpt_file;
        }
        const std::string obs_files = write_fail_obs(out, w, seed);
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
