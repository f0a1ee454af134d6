#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

// Topology-aware scale-out observability (docs/OBSERVABILITY.md).
//
// A topo::Snapshot is the machine's answer to "where does the hierarchy
// saturate?": per-level ring utilization, the leaf-to-leaf traffic matrix,
// per-home-leaf directory-shard pressure, and per-(src,dst)-domain boundary
// channel statistics. Every field is integer simulated data — counters the
// machine increments deterministically — so the rendered report is
// byte-identical across hosts, `--jobs` and `--sim-threads` values.
//
// Host wall-clock numbers (the parallel self-profiler) deliberately live
// elsewhere (sim::ParallelEngine::HostProfile → the [host] stderr line and
// BENCH_host.json): they vary run to run and must never enter these
// byte-stable files.
namespace ksr::obs::topo {

/// One slotted ring's lifetime counters. `busy_slot_ns` is the integral of
/// in-flight packets over simulated time (slot·ns), so
/// busy_slot_ns / (slots · elapsed_ns) is the mean slot utilization.
struct RingUse {
  std::string name;                  // "ring0.3", "ring:1"
  unsigned level = 0;                // 0 = leaf ring, 1 = ARD ring
  std::uint64_t slots = 0;           // slot_count()
  std::uint64_t packets = 0;
  std::uint64_t retries = 0;
  std::uint64_t inject_wait_ns = 0;
  std::uint64_t busy_slot_ns = 0;    // ∫ in_flight dt
  std::uint64_t elapsed_ns = 0;      // engine now() at snapshot
};

/// One home-leaf directory shard's request counters plus its hottest
/// sub-pages (sorted by count descending, sub-page id ascending).
struct ShardUse {
  unsigned home_leaf = 0;
  std::uint64_t requests = 0;   // decide/commit entries routed to this shard
  std::uint64_t grants = 0;
  std::uint64_t nacks = 0;
  std::uint64_t busy_ns = 0;    // simulated ns entries spent busy (mode B)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hot;  // (subpage, n)
};

/// One boundary channel's per-quantum delivery profile. The slack histogram
/// buckets (packet delivery time − merge horizon) in units of the quantum:
/// bucket 0 = lands in the very next quantum, bucket 7 = ≥7 quanta out.
struct ChannelUse {
  unsigned src = 0;
  unsigned dst = 0;
  std::uint64_t packets = 0;
  std::uint64_t max_per_quantum = 0;
  std::array<std::uint64_t, 8> slack_hist{};
};

struct Snapshot {
  unsigned leaves = 0;
  unsigned domains = 1;
  unsigned cells_per_leaf = 0;
  std::uint64_t quantum_ns = 0;
  std::uint64_t quanta = 0;            // conservative-quantum barriers crossed
  std::uint64_t boundary_packets = 0;  // total cross-domain packets merged
  std::vector<RingUse> rings;
  std::vector<std::uint64_t> traffic;  // leaves × leaves, row-major src→dst
  std::vector<ShardUse> shards;
  std::vector<ChannelUse> channels;

  [[nodiscard]] std::uint64_t traffic_at(unsigned src, unsigned dst) const {
    return traffic[static_cast<std::size_t>(src) * leaves + dst];
  }
};

/// Mean slot utilization in parts per million: busy_slot_ns · 10^6 /
/// (slots · elapsed_ns), computed in 128-bit integer math (a 1088-cell full
/// run overflows u64 at the multiply).
[[nodiscard]] std::uint64_t util_ppm(const RingUse& r) noexcept;

/// Peak utilization (ppm) across all rings of `level`; 0 if none.
[[nodiscard]] std::uint64_t peak_util_ppm(const Snapshot& s, unsigned level);

/// The shard with the most requests (ties: lowest home leaf); nullptr when
/// the snapshot carries no shard data.
[[nodiscard]] const ShardUse* hottest_shard(const Snapshot& s);

/// Byte-stable plain-text report: topology header, per-level ring table,
/// shard table (top sub-pages inline), boundary-channel table, and a
/// condensed traffic summary. Integer math only.
void write_report(std::ostream& os, const Snapshot& s);

/// Long-format heatmap CSV rows (`job,src_leaf,dst_leaf,packets`, non-zero
/// cells only) for the job labelled `job_label`.
void write_matrix_csv(std::ostream& os, const Snapshot& s,
                      const std::string& job_label);

/// Header line of a matrix CSV (written once per file).
void write_matrix_csv_header(std::ostream& os);

}  // namespace ksr::obs::topo
