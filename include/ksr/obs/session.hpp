#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include <vector>

#include "ksr/machine/machine.hpp"
#include "ksr/obs/analyze.hpp"
#include "ksr/obs/export.hpp"
#include "ksr/obs/metrics.hpp"
#include "ksr/obs/topo.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/util/flags.hpp"

// Observability wiring shared by the bench binaries and ksrsim.
//
// A Session owns the output files named by --trace-out / --metrics-csv and
// hands out one JobObs per simulation. Jobs may run on SweepRunner pool
// threads: JobObs is self-contained (its own Tracer + MetricsRegistry, no
// shared state), travels through the job's result struct, and the caller
// collect()s it on the main thread *in submission order* — so merged trace
// and metrics files are byte-identical for any --jobs value, exactly like
// the tables themselves. collect() streams the job out and frees its
// buffer, so a long sweep never holds more than the in-flight jobs' traces.
//
// Everything a Session prints goes to files or stderr; stdout (the tables /
// --csv output) stays byte-for-byte identical with observability on or off.
namespace ksr::obs {

struct SessionOptions {
  bool trace = false;          // capture a trace (--trace)
  std::string categories;      // comma-separated filter; empty = all
  std::string trace_out;       // output path; empty = "<name>_trace.json"
  std::string metrics_csv;     // metrics time-series path; empty = off
  std::string report;          // ksrprof profile report path; empty = off
                               // (implies trace capture, not trace output)
  std::string topo_report;     // topology report path; empty = off. Also
                               // writes "<path>.matrix.csv" (traffic heatmap)
  sim::Duration metrics_period_ns = MetricsRegistry::kDefaultPeriodNs;
  // Per-job record capacity (40 B each). Overflow is counted, not silent.
  // Overridable via --trace-cap.
  std::size_t trace_capacity = 1u << 18;

  /// The observability flag rows every bench binary and ksrsim share
  /// (ksr/util/flags.hpp), bound to this struct's fields.
  [[nodiscard]] std::vector<util::Flag> flags() {
    return {
        {.name = "trace",
         .target = &categories,
         .help = "[=cat,...]  trace ring,coherence,sync,stall (default all)",
         .seen = &trace,
         .optional = true},
        {.name = "trace-out",
         .target = &trace_out,
         .help = "FILE  trace output: .json (Perfetto) or .csv",
         .seen = &trace},
        {.name = "trace-cap",
         .target = &trace_capacity,
         .help = "N  records per job buffer (default 2^18)",
         .min = 1},
        {"metrics-csv", &metrics_csv, "FILE  sampled metrics time series"},
        {"report", &report, "FILE  ksrprof profile (sharing, sync, stalls)"},
        {"topo-report", &topo_report,
         "FILE  topology report (+ FILE.matrix.csv heatmap)"},
    };
  }
};

/// Per-simulation observability handle. Default-constructed it is inert
/// (attach()/finish() are no-ops), so result structs can always carry one.
class JobObs {
 public:
  JobObs() = default;
  JobObs(JobObs&&) noexcept = default;
  JobObs& operator=(JobObs&&) noexcept = default;

  /// Attach tracer + metrics sampler to `m`. Call right after constructing
  /// the machine, before Machine::run().
  void attach(machine::Machine& m) {
    if (tracer_) m.attach_tracer(tracer_.get());
    if (metrics_) metrics_->attach(m, period_);
    machine_ = &m;
  }

  /// Take the final metrics sample, snapshot the heap's region map (the
  /// job's allocations happen after attach(), so name resolution for
  /// reports and offline analysis must wait until the job is done) and,
  /// when topo reporting or tracing is on, the machine's topo::Snapshot.
  /// Call after the last run(), while the machine is still alive.
  void finish() {
    if (metrics_) metrics_->finish();
    if (machine_ != nullptr && tracer_) {
      const mem::Heap& h = machine_->heap();
      regions_.reserve(h.region_count());
      for (std::size_t i = 0; i < h.region_count(); ++i) {
        const mem::Region& r = h.region(i);
        regions_.push_back({r.base, r.bytes, r.name});
      }
    }
    if (machine_ != nullptr && (topo_wanted_ || tracer_)) {
      machine_->topo_snapshot(topo_);
      has_topo_ = true;
      // Per-cell (leaf, domain) for the Chrome exporter's leaf-ring
      // grouping; only worth emitting on a multi-leaf machine (single-leaf
      // traces keep the seed's exact byte layout).
      if (tracer_ && topo_.leaves > 1 && topo_.cells_per_leaf > 0) {
        cells_.resize(machine_->nproc());
        for (unsigned c = 0; c < machine_->nproc(); ++c) {
          cells_[c].leaf = c / topo_.cells_per_leaf;
          cells_[c].domain = machine_->domain_of_cell(c);
        }
      }
    }
    machine_ = nullptr;
  }

  [[nodiscard]] Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const std::vector<RegionSpan>& regions() const noexcept {
    return regions_;
  }
  [[nodiscard]] const topo::Snapshot& topo() const noexcept { return topo_; }
  [[nodiscard]] bool has_topo() const noexcept { return has_topo_; }

 private:
  friend class Session;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::vector<RegionSpan> regions_;
  topo::Snapshot topo_;
  std::vector<ChromeTraceWriter::CellTopo> cells_;
  machine::Machine* machine_ = nullptr;
  sim::Duration period_ = MetricsRegistry::kDefaultPeriodNs;
  bool topo_wanted_ = false;
  bool has_topo_ = false;
};

class Session {
 public:
  /// `name` seeds the default trace filename ("<name>_trace.json").
  Session(SessionOptions opt, std::string name);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] bool tracing() const noexcept { return opt_.trace; }
  [[nodiscard]] bool metrics() const noexcept {
    return !opt_.metrics_csv.empty();
  }
  [[nodiscard]] bool reporting() const noexcept {
    return !opt_.report.empty();
  }
  [[nodiscard]] bool topo_reporting() const noexcept {
    return !opt_.topo_report.empty();
  }
  [[nodiscard]] bool active() const noexcept {
    return tracing() || metrics() || reporting() || topo_reporting();
  }

  /// Create the observability handle for one job. Thread-safe in the trivial
  /// way: it mutates nothing in the Session. Returns an inert handle when
  /// neither tracing nor metrics is requested.
  [[nodiscard]] JobObs job() const;

  /// Stream one finished job into the merged outputs. Must be called on the
  /// submitting thread, in submission order (iterate SweepRunner results in
  /// order, exactly as the tables do).
  void collect(JobObs obs, const std::string& label);

  /// Flush and close the outputs (idempotent; the destructor calls it).
  void close();

  /// False once any output failed to open or write (full disk, bad path).
  /// Every failure is also reported on stderr with the offending path; the
  /// tools fold this into their exit status after close(), so a truncated
  /// trace or metrics file can never look like a successful run.
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  [[nodiscard]] bool trace_as_csv() const;
  [[nodiscard]] std::string trace_path() const;

  SessionOptions opt_;
  std::string name_;
  std::ofstream trace_os_;
  std::ofstream metrics_os_;
  std::ofstream report_os_;
  std::ofstream topo_os_;
  std::ofstream matrix_os_;
  std::unique_ptr<ChromeTraceWriter> writer_;  // JSON mode
  bool trace_header_done_ = false;             // CSV mode
  bool metrics_header_done_ = false;
  bool matrix_header_done_ = false;
  std::uint64_t total_events_ = 0;
  std::uint64_t total_dropped_ = 0;
  std::size_t jobs_collected_ = 0;
  bool closed_ = false;
  bool ok_ = true;
};

}  // namespace ksr::obs
