#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ksr/machine/machine.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/padded.hpp"

// NAS Integer Sort (IS) kernel (paper §3.3.2, Table 2, Figs. 8 & 9).
//
// Bucket-sort ranking: count keys per bucket, prefix-sum the counts, assign
// each key its rank. The parallel algorithm is exactly the seven phases of
// the paper's Fig. 9:
//
//  1. each processor counts its key chunk into a *replicated* local bucket
//     array (keyden_t) — no synchronization;
//  2. each processor accumulates its portion of the global bucket counts
//     (keyden) from all processors' local counts — the all-to-all that
//     loads the ring;
//  3. each processor prefix-sums its portion of keyden;
//  4. processor P1 serially combines the per-processor partial maxima
//     (tmp_sum) — the serial section that grows with P;
//  5. each processor adds tmp_sum[i-1] into its portion;
//  6. each processor atomically copies keyden into its local keyden_t and
//     decrements it — one sub-page locked at a time, so access pipelines;
//  7. each processor ranks its keys from its local keyden_t.
namespace ksr::nas {

struct IsConfig {
  unsigned log2_keys = 15;     // paper: 2^23 (machine scaled accordingly)
  unsigned log2_buckets = 9;   // paper: ~2^19
  std::uint64_t seed = 1618033;
  std::uint64_t work_per_key = 6;  // index arithmetic per key visit
  // The paper's implementation "used [prefetch] quite extensively": pull the
  // other processors' local counts ahead of phase 2's all-to-all reduction.
  bool use_prefetch = true;
  // Start each processor's keyden portion on a fresh sub-page. The default
  // (false) keeps the paper's layout, where neighbouring portions share the
  // sub-page at their boundary — false sharing whenever the portion size is
  // not a multiple of 32 buckets (e.g. any non-power-of-two P).
  bool pad_buckets = false;
};

struct IsResult {
  double seconds = 0.0;      // timed region (slowest cell)
  bool ranks_valid = false;  // ranks form a permutation that sorts the keys
  double serial_phase_seconds = 0.0;  // phase 4 on cell 0
};

/// Run IS on the machine; all cells participate.
IsResult run_is(machine::Machine& m, const IsConfig& cfg);

/// The key sequence the kernel sorts (exposed for tests).
[[nodiscard]] std::vector<std::uint32_t> make_keys(const IsConfig& cfg);

/// The IS kernel's state, and its split-phase form for checkpoint/warm-start
/// flows (docs/CHECKPOINT.md).
///
/// run_is is this class run in one piece: one Machine::run() whose fibers
/// do the warm-up and then the seven ranking phases on the warm-up barrier.
/// The split form cuts the same bodies at the warm-up barrier: the untimed
/// warm-up (key distribution + count zeroing) is one Machine::run(), the
/// seven timed ranking phases are a second run(). Between the two the
/// machine is quiescent, so a checkpoint can be captured there — or a fresh
/// machine restored from one — and the ranking phases then replay
/// bit-exactly in either flow. Because the split spawns two fibers per cell
/// and uses two barrier instances, its events_dispatched fingerprint is NOT
/// comparable with run_is's single-run fingerprint; compare split runs only
/// with other split runs.
///
///   cold:  IsSplit is(m, cfg);  is.run_warmup();   auto r = is.run_ranked();
///   fork:  IsSplit is(m, cfg);  m.restore(image);  auto r = is.run_ranked();
///
/// The constructor performs the complete allocation sequence — including the
/// warm-up barrier, even though a forked machine never arrives at it — so
/// the forked machine's heap layout matches the donor's at capture time.
/// run_ranked() builds its own fresh barrier after the checkpoint boundary
/// in both flows (a barrier holds host-side per-cpu episode state, so the
/// two flows must both start the ranking phases on a brand-new instance).
class IsSplit {
 public:
  IsSplit(machine::Machine& m, const IsConfig& cfg);

  /// Phase A (untimed): distribute keys, zero the count arrays. Leaves the
  /// machine at the quiescent point where checkpoints are captured.
  void run_warmup();

  /// Phase B (timed): the paper's seven ranking phases + host validation.
  [[nodiscard]] IsResult run_ranked();

 private:
  friend IsResult run_is(machine::Machine& m, const IsConfig& cfg);

  /// One cell's warm-up, ending at the warm-up barrier.
  void warmup(machine::Cpu& cpu);
  /// One cell's seven ranking phases on `barrier`; returns the cell's timed
  /// seconds. Cell 0 also records the serial phase in serial_seconds_.
  double rank(machine::Cpu& cpu, sync::Barrier& barrier);
  /// Slowest cell's time plus the host-side check that the ranks sort.
  [[nodiscard]] IsResult result(const std::vector<double>& cell_seconds) const;

  machine::Machine& m_;
  IsConfig cfg_;
  std::size_t n_ = 0;
  std::size_t nbuckets_ = 0;
  std::size_t chunk_ints_ = 0;
  std::vector<std::uint32_t> host_keys_;
  std::vector<std::size_t> slot_;
  mem::SharedArray<std::uint32_t> keys_;
  mem::SharedArray<std::uint32_t> rank_;
  mem::SharedArray<std::uint32_t> keyden_;
  mem::SharedArray<std::uint32_t> keyden_t_;
  sync::Padded<std::uint32_t> tmp_sum_;
  std::unique_ptr<sync::Barrier> warm_barrier_;
  double serial_seconds_ = 0.0;
};

}  // namespace ksr::nas
