#pragma once

#include <string>
#include <vector>

#include "ksr/serve/core.hpp"

// Batch "campaign" mode (docs/SERVING.md): a declarative manifest expands
// into a job list, runs through a ServeCore, and leaves a result database
// behind. Every completed job is persisted to the content-addressed store
// the moment it finishes, so a campaign killed halfway resumes from the
// cache — the second invocation re-submits everything and the already-done
// points come back as hits.
//
// Manifest schema (JSON):
//   {
//     "name": "fig8_quick",
//     "base": { ...JobSpec fields shared by every sweep... },   (optional)
//     "sweeps": [
//       { "base": { ...JobSpec fields... },                     (optional)
//         "axes": { "procs": [1,4,16], ... } },                 (optional)
//       ...
//     ]
//   }
//
// Each sweep's jobs are the cross product of its axes (axes iterate in
// manifest order, later axes fastest), layered over manifest base + sweep
// base; sweeps run in listed order. Axis names are JobSpec field names and
// their values must be valid for that field.
namespace ksr::serve {

struct Campaign {
  std::string name;
  std::vector<JobSpec> jobs;
};

/// Expand a parsed manifest. False + *err on schema violations.
[[nodiscard]] bool expand_manifest(const Json& manifest, Campaign* out,
                                   std::string* err);

struct CampaignOutcome {
  std::size_t jobs = 0;
  std::size_t hits = 0;      // served from cache (or deduped in flight)
  std::size_t executed = 0;  // actually simulated this run
  std::size_t failures = 0;
  [[nodiscard]] unsigned hit_rate_pct() const noexcept {
    return jobs == 0 ? 0
                     : static_cast<unsigned>(hits * 100 / jobs);
  }
};

/// Run every job through `core` (SweepRunner-sharded) and write the result
/// database:
///   <out_prefix>.jsonl  one line per job: index, key, spec, result —
///                       deterministic bytes, identical for cold and
///                       resumed runs (ctest golden_digests: scripts/
///                       golden.sh runs each preset twice and compares)
///   <out_prefix>.csv    index,workload,machine,procs,scale,key,
///                       events_dispatched,seconds
/// Both files are written temp-then-atomic-rename at the end of the run.
/// Failed jobs carry an "error" line in the jsonl and empty CSV metrics.
/// Progress and the final hit-rate summary go to stderr.
[[nodiscard]] CampaignOutcome run_campaign(const Campaign& campaign,
                                           ServeCore& core,
                                           const std::string& out_prefix);

}  // namespace ksr::serve
