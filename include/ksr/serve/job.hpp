#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ksr/machine/config.hpp"
#include "ksr/serve/json.hpp"
#include "ksr/util/flags.hpp"

namespace ksr::machine {
class Machine;
}  // namespace ksr::machine

// A serve job = MachineConfig knobs + workload name/params + seed +
// optional checkpoint preset (docs/SERVING.md). It is the repo's one run
// description: `ksrsim kernel/sweep/submit`, the daemon, campaigns and
// ksrfuzz's machines all build from a JobSpec. Every simulation in this
// repo is bit-deterministic — the same spec produces the same
// events_dispatched fingerprint and the same result values at any --jobs /
// --sim-threads — so a content hash of (spec, code version) is a *perfect*
// cache key for the result store. Execution policy (how many host threads
// run the job) is therefore deliberately NOT part of the spec.
namespace ksr::serve {

/// Bump when a change moves any pinned fingerprint (simulated semantics,
/// kernel schedules, machine timing): every cached result keyed under the
/// old version becomes unreachable and re-runs on first request. The
/// pinned-fingerprint stage of scripts/bench_host.sh --check is the tripwire
/// that tells you a bump is due. Version 2: events_dispatched counts every
/// domain of a multi-domain machine, not domain 0 only.
inline constexpr std::uint32_t kCodeVersion = 2;

struct JobSpec {
  // --- machine knobs (machine_config() vocabulary) ---
  std::string machine = "ksr1";  // ksr1|ksr2|symmetry|butterfly
  unsigned procs = 8;
  unsigned scale = 1;            // MachineConfig::scaled_by
  bool snarf = true;             // read_snarfing
  std::uint64_t fuzz_seed = 0;   // sched_fuzz_seed
  unsigned cells_per_leaf = 0;   // 0 = preset
  unsigned cells_per_domain = 0; // 0 = single domain

  // --- workload ---
  std::string workload = "cg";   // a workloads() name: ep|cg|is|sp|bt
  std::uint64_t seed = 0;        // 0 = the kernel's published default seed
  // Size parameters; 0 (or false) means the workload's registry default
  // (Workload::sizes). Unused parameters for a workload are ignored at
  // execution but still keyed — two spellings of the same job may occupy
  // two cache slots (conservative), a shared slot can never collide.
  unsigned log2_keys = 0;        // is
  unsigned log2_buckets = 0;     // is
  bool pad_buckets = false;      // is
  unsigned n = 0;                // cg/sp/bt
  unsigned nnz_per_row = 0;      // cg
  unsigned iters = 0;            // cg/sp/bt
  unsigned log2_pairs = 0;       // ep
  // Checkpoint preset (workloads with a Workload::warmup, i.e. is):
  // restore the machine from this image and run the timed phases instead
  // of the warm-up (docs/CHECKPOINT.md). The *contents* of the file are
  // folded into the cache key, so the preset is itself content-addressed.
  std::string restore_from;

  /// Empty string when the spec is well-formed, else a diagnostic. Validates
  /// the vocabulary and builds the MachineConfig once to run its validate().
  [[nodiscard]] std::string validate() const;

  /// The machine this spec names: the preset (ksr1|ksr2|symmetry|butterfly)
  /// with scale, snarf, fuzz seed and topology applied. `sim_threads` is
  /// execution policy, so it is an argument, not a field. Throws
  /// std::invalid_argument for an unknown machine name.
  [[nodiscard]] machine::MachineConfig machine_config(
      unsigned sim_threads) const;

  /// Canonical fixed-field-order serialization — the byte string the cache
  /// key hashes. Includes every field (plus the FNV-1a of the checkpoint
  /// preset's bytes when one is named), so any change to any field, seed or
  /// preset changes the key.
  [[nodiscard]] std::string canonical() const;

  [[nodiscard]] Json to_json() const;
  /// Populate from a JSON object (unknown keys are errors — a typo'd knob
  /// must not silently run with defaults). Fields absent keep defaults.
  static bool from_json(const Json& j, JobSpec* out, std::string* err);

  /// One command-line row per field, bound to this spec: `--machine`,
  /// `--procs`, ... (the JSON name with '_' -> '-'), plus `--name` for
  /// workload and `--no-snarf` clearing snarf.
  [[nodiscard]] std::vector<util::Flag> flags();

  bool operator==(const JobSpec&) const = default;
};

struct CacheKey {
  std::uint64_t value = 0;
  [[nodiscard]] std::string hex() const;
};

/// FNV-1a over canonical() plus the version stamps (kCodeVersion and the
/// checkpoint format version). Throws std::runtime_error when the spec
/// names a checkpoint preset that cannot be read.
[[nodiscard]] CacheKey derive_key(const JobSpec& spec,
                                  std::uint32_t code_version = kCodeVersion);

/// The same key from an already computed spec.canonical(), which saves
/// reading and hashing a checkpoint preset a second time.
[[nodiscard]] CacheKey derive_key(std::string canonical,
                                  std::uint32_t code_version);

/// One row of the workload registry. Adding a workload is adding a row.
struct Workload {
  /// A JobSpec size field and the value it takes when the spec leaves it 0.
  struct Size {
    unsigned JobSpec::*member;
    unsigned value;
  };
  const char* name;
  std::vector<Size> sizes;
  /// Run the kernel on `m` (sizes already resolved) and append its result
  /// fields to `result`. A spec with restore_from restores the warm-up
  /// boundary instead of simulating the warm-up.
  void (*run)(machine::Machine& m, const JobSpec& spec, Json& result);
  /// The untimed warm-up alone, ending at the quiescent boundary where a
  /// restore_from checkpoint is captured; null when there is none.
  void (*warmup)(machine::Machine& m, const JobSpec& spec) = nullptr;
};

/// The registry: ep, cg, is, sp, bt, in that order.
[[nodiscard]] const std::vector<Workload>& workloads();

struct JobOutcome {
  std::uint64_t events = 0;  // whole-machine events_dispatched fingerprint
  std::string result;        // deterministic result JSON (the cached bytes)
};

/// Run `spec`'s workload on `m`, a machine built from spec.machine_config()
/// with whatever tracer, checker or observer the caller attached. Those
/// never perturb the simulation, so the bytes equal execute(spec).result.
/// Throws on an unknown workload or a checkpoint mismatch.
[[nodiscard]] JobOutcome run_workload(const JobSpec& spec,
                                      machine::Machine& m);

/// The spec's Workload::warmup on `m`, leaving it at the quiescent boundary
/// where a checkpoint for restore_from is captured. Throws when the
/// workload has no warm-up boundary.
void run_warmup(const JobSpec& spec, machine::Machine& m);

/// Validate, build a fresh machine, run_workload(). `sim_threads` is server
/// execution policy — results are bit-identical for any value
/// (docs/PARALLEL.md). Throws on invalid specs or checkpoint mismatches.
[[nodiscard]] JobOutcome execute(const JobSpec& spec, unsigned sim_threads = 1);

}  // namespace ksr::serve
