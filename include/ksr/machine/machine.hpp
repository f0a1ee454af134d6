#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ksr/cache/perf_monitor.hpp"
#include "ksr/machine/config.hpp"
#include "ksr/machine/cpu.hpp"
#include "ksr/mem/heap.hpp"
#include "ksr/obs/topo.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/parallel_engine.hpp"

namespace ksr::ckpt {
class Writer;
class Reader;
}  // namespace ksr::ckpt

// The whole-machine abstraction.
//
// A Machine owns the event engine, the data heap, and the machine-specific
// memory system (caches + interconnect + coherence). Programs are launched
// with run(): one fiber per cell, each receiving a Cpu bound to that cell.
// Machine state (cache contents, coherence state) persists across run()
// calls on the same instance, so multi-phase experiments can control warmth.
namespace ksr::machine {

/// Data placement policy. The KSR (COMA) and Symmetry (caches) ignore it —
/// data migrates to where it is used. The Butterfly has no caches, so the
/// home memory module of an address matters: kBlocked homes consecutive
/// chunks of `bytes_per_cell` on consecutive cells (the "allocate my flags
/// in my own memory" idiom every Butterfly barrier depends on).
struct Placement {
  enum class Kind : std::uint8_t { kInterleaved, kBlocked };
  Kind kind = Kind::kInterleaved;
  std::size_t bytes_per_cell = 0;  // for kBlocked

  static Placement blocked(std::size_t bytes_per_cell) {
    return Placement{Kind::kBlocked, bytes_per_cell};
  }
};

/// Instantaneous interconnect counters for the metrics sampler (slot
/// utilization, cumulative inject wait, retry rate). Machines without a
/// modelled interconnect report all-zero.
struct NetSnapshot {
  std::uint64_t in_flight = 0;        // packets currently holding a slot
  std::uint64_t slots = 0;            // total slots machine-wide
  std::uint64_t packets = 0;          // cumulative injected packets
  std::uint64_t retries = 0;          // cumulative failed slot grabs
  sim::Duration inject_wait_ns = 0;   // cumulative slot-wait time

  void add(const NetSnapshot& o) noexcept {
    in_flight += o.in_flight;
    slots += o.slots;
    packets += o.packets;
    retries += o.retries;
    inject_wait_ns += o.inject_wait_ns;
  }
};

/// Everything measured during one run() call.
struct RunResult {
  double seconds = 0.0;              // completion time of the slowest cell
  std::vector<double> cell_seconds;  // per-cell completion times
  cache::PerfMonitor pmon;           // machine-wide counter deltas
  std::vector<cache::PerfMonitor> cell_pmon;  // per-cell counter deltas
};

class Machine {
 public:
  using Program = std::function<void(Cpu&)>;

  explicit Machine(const MachineConfig& cfg)
      : cfg_(cfg), par_(domain_plan(cfg_)) {
    cfg_.validate();
    par_.set_tie_break_seed(cfg_.sched_fuzz_seed);
  }
  virtual ~Machine() = default;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] unsigned nproc() const noexcept { return cfg_.nproc; }

  /// Domain 0's serial engine: engine_of(0), kept for callers outside the
  /// simulator that read domain 0's counters. Components name their domain.
  [[nodiscard]] sim::Engine& engine() { return engine_of(0); }

  /// The serial engine owning domain `d` (a single-domain machine is the
  /// one-domain case: every component lives on engine_of(0)).
  [[nodiscard]] sim::Engine& engine_of(unsigned d) { return par_.domain(d); }

  /// How many domains this machine actually runs (1 unless a ring machine
  /// was configured with cells_per_domain; see MachineConfig).
  [[nodiscard]] unsigned domains() const noexcept { return par_.domains(); }

  /// Domain owning `cell` (leaf-ring aligned on ring machines, always 0 on
  /// single-domain machines).
  [[nodiscard]] unsigned domain_of_cell(unsigned cell) const noexcept {
    return par_.domains() == 1 ? 0 : cfg_.domain_of_cell(cell);
  }

  /// Domain owning leaf ring `leaf` and its directory shard (always 0 on
  /// single-domain machines).
  [[nodiscard]] unsigned domain_of_leaf(unsigned leaf) const noexcept {
    return par_.domains() == 1 ? 0 : cfg_.domain_of_leaf(leaf);
  }

  /// True when the machine runs more than one domain: the coherence
  /// protocol then commits through home-shard messages rather than the
  /// seed's synchronous path (docs/PARALLEL.md).
  [[nodiscard]] bool multi_domain() const noexcept {
    return par_.domains() > 1;
  }

  /// The quantum engine advancing this machine's domains across
  /// cfg.sim_threads host threads (docs/PARALLEL.md). run() drives it;
  /// expose it for host-side instrumentation (quanta/boundary counts).
  [[nodiscard]] sim::ParallelEngine& parallel_engine() noexcept { return par_; }
  [[nodiscard]] mem::Heap& heap() noexcept { return heap_; }

  /// Allocate a shared array of `n` elements of T (page-aligned, zeroed).
  template <typename T>
  mem::SharedArray<T> alloc(std::string_view name, std::size_t n,
                            const Placement& p = {}) {
    const mem::Region& r = heap_.alloc(n * sizeof(T), name);
    register_region(r, p);
    return mem::SharedArray<T>(r, n);
  }

  /// Call `fn` once at the start of the next run(), before any fiber is
  /// spawned and after any restore() in between. The metrics sampler arms
  /// its observer chain here: the chain then starts on the restored clock
  /// and never trips restore()'s quiescence check.
  void before_next_run(std::function<void()> fn) {
    next_run_hooks_.push_back(std::move(fn));
  }

  /// Run `program` on every cell; returns when all cells complete.
  RunResult run(const Program& program);

  /// Run a distinct program per cell (size must equal nproc()).
  RunResult run(const std::vector<Program>& programs);

  /// Per-cell perf-monitor access (hardware monitor equivalent).
  [[nodiscard]] virtual cache::PerfMonitor& cell_pmon(unsigned cell) = 0;

  /// Every cell's perf monitor summed: the machine-wide view.
  [[nodiscard]] cache::PerfMonitor total_pmon() {
    cache::PerfMonitor total;
    for (unsigned c = 0; c < nproc(); ++c) total.add(cell_pmon(c));
    return total;
  }

  /// Attach (or detach with nullptr) a structured event tracer. The
  /// coherence engine and interconnects log to it; hot paths pay only a
  /// null test when no tracer is attached. On a multi-domain machine the
  /// base implementation also builds one private shard per extra domain
  /// (mode B observer lane): each domain's components log to their own
  /// shard on their own thread, and run() merges every shard back into the
  /// attached tracer in (time, domain, append) order at the end — so the
  /// merged buffer is bit-identical at any --sim-threads. Shards clone the
  /// attached tracer's capacity and category mask; they rely on the builtin
  /// category/event ids, so runtime-interned custom names must only be
  /// logged through the primary tracer (host-side region markers do).
  virtual void attach_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// The tracer domain `d`'s components must log to: the attached tracer
  /// for domain 0 (and for single-domain machines), domain d's private
  /// shard otherwise. Null whenever no tracer is attached.
  [[nodiscard]] obs::Tracer* tracer_of(unsigned d) const noexcept {
    if (tracer_shards_.empty() || d == 0) return tracer_;
    return tracer_shards_[d - 1].get();
  }

  /// Shorthand for tracer_of(domain_of_cell(cell)) — the sync primitives
  /// and per-cpu stall sites log through this so a record is always written
  /// by the thread advancing the logging cell's domain. Shards exist only
  /// with a tracer attached, so an untraced call does no domain arithmetic.
  [[nodiscard]] obs::Tracer* tracer_for_cell(unsigned cell) const noexcept {
    if (tracer_shards_.empty()) return tracer_;
    return tracer_of(domain_of_cell(cell));
  }

  /// Instantaneous interconnect counters owned by domain `d` (its leaf
  /// rings; see NetSnapshot). Read-only and side-effect free: the
  /// obs::MetricsRegistry sampler calls it from domain d's observer lane,
  /// so it must touch no other domain's state. Default: no interconnect.
  [[nodiscard]] virtual NetSnapshot net_snapshot_of(unsigned d) const {
    (void)d;
    return {};
  }

  /// The whole machine's interconnect counters: net_snapshot_of summed
  /// over every domain. Host-side only (reads every domain's state).
  [[nodiscard]] NetSnapshot net_snapshot() const {
    NetSnapshot s;
    for (unsigned d = 0; d < domains(); ++d) s.add(net_snapshot_of(d));
    return s;
  }

  /// Fill `s` with this machine's topology counters (docs/OBSERVABILITY.md).
  /// The base contributes the domain plan: domain count, quantum width and —
  /// on multi-domain machines only, where the quantum loop actually runs —
  /// quanta, boundary packets and per-channel stats. Subclasses add rings,
  /// the traffic matrix and directory-shard pressure. Integer simulated
  /// data only: the rendered report is byte-identical across hosts, --jobs
  /// and --sim-threads.
  virtual void topo_snapshot(obs::topo::Snapshot& s) const;

  /// --- Checkpoint/restore (docs/CHECKPOINT.md). ---
  ///
  /// checkpoint() serializes the complete machine state — engine clocks and
  /// tie-break seeds, heap region bytes, caches, directory, interconnect
  /// counters — into a versioned, fingerprinted image (ksr::ckpt format).
  /// It is only legal at a quiescent point: between run() calls, with every
  /// domain drained, every boundary channel empty, no directory entry busy,
  /// and every ring idle; anything else throws with a diagnostic naming the
  /// offender, never serializing mid-flight state.
  ///
  /// restore() loads an image into a freshly constructed machine of the
  /// *same configuration* (every config field is validated) whose driver
  /// has re-issued the same alloc() calls, or whose heap is still empty
  /// (regions are then re-allocated from the image). After restore, the
  /// machine is bit-exact with the one that was checkpointed: subsequent
  /// run() calls produce the same events_dispatched fingerprint, trace
  /// bytes, and I1–I6 audit results as the uninterrupted run.
  [[nodiscard]] std::vector<std::byte> checkpoint();
  void restore(const std::vector<std::byte>& image);

  /// File convenience wrappers around checkpoint()/restore().
  void checkpoint_to(const std::string& path);
  void restore_from(const std::string& path);

 protected:
  /// Machine-specific quiescence veto: throw if any subsystem still holds
  /// in-flight simulated state (busy directory entries, occupied ring
  /// slots, pending prefetches). Called by checkpoint() after the engine-
  /// level checks pass.
  virtual void ckpt_assert_quiescent() const {}

  /// Serialize / restore machine-specific state (caches, directory, ring
  /// stats). Writer and reader must consume the stream in lock-step.
  virtual void ckpt_save(ckpt::Writer& w) const { (void)w; }
  virtual void ckpt_load(ckpt::Reader& r) { (void)r; }
  /// Construct the machine-specific Cpu for `cell`.
  virtual std::unique_ptr<Cpu> make_cpu(unsigned cell) = 0;

  /// Hook for machines that care about placement (Butterfly).
  virtual void register_region(const mem::Region& region, const Placement& p) {
    (void)region;
    (void)p;
  }

  /// Map the config's partition request onto a ParallelEngine plan:
  /// leaf-aligned domains on ring machines (the sharded directory makes the
  /// partition protocol-correct), one domain everywhere else. Defined out
  /// of line (machine.cpp); warns once when a request is rounded to leaf
  /// boundaries or refused (bus/butterfly).
  [[nodiscard]] static sim::ParallelEngine::Config domain_plan(
      const MachineConfig& cfg);

  /// Fold every per-domain tracer shard back into the attached tracer in
  /// (time, domain, append) order. run() calls this after the engines
  /// drain; idempotent (shards are left empty).
  void merge_tracer_shards();

  MachineConfig cfg_;
  sim::ParallelEngine par_;
  mem::Heap heap_;
  obs::Tracer* tracer_ = nullptr;
  // Mode-B observer shards for domains 1..D-1 (domain 0 logs straight to
  // tracer_); empty on single-domain machines or with no tracer attached.
  std::vector<std::unique_ptr<obs::Tracer>> tracer_shards_;
  std::vector<std::function<void()>> next_run_hooks_;  // see before_next_run
};

}  // namespace ksr::machine
