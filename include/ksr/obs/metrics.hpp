#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "ksr/cache/perf_monitor.hpp"
#include "ksr/machine/machine.hpp"
#include "ksr/sim/time.hpp"

// Machine-wide metrics: the whole-machine view the paper's authors got from
// the KSR-1's hardware performance monitor, plus interval time series.
//
// MetricsRegistry aggregates the per-cell PerfMonitor counters across every
// cell and, when attached, samples them periodically *on the simulated
// clock* through the engine's observer lane — so a 100 us sampling period
// means one sample per 100 us of simulated time, bit-identical wall-clock
// independent, and provably non-perturbing (observers never touch the main
// event queue or events_dispatched()).
namespace ksr::obs {

/// One point of the interval time series: one domain's cells and rings,
/// taken on that domain's own engine (a single-domain machine's one domain
/// is the whole machine).
struct MetricsSample {
  sim::Time t = 0;
  unsigned domain = 0;
  cache::PerfMonitor pmon;        // cumulative, summed over covered cells
  machine::NetSnapshot net;       // cumulative + instantaneous ring state
};

class MetricsRegistry {
 public:
  static constexpr sim::Duration kDefaultPeriodNs = 100'000;  // 100 us

  /// Start sampling `m` every `period_ns` of simulated time. Call before
  /// Machine::run() (a restore() may come in between: the chain is armed
  /// when the run starts); the sampling chain ends with the run. A registry
  /// observes exactly one machine. One observer chain runs per domain, on
  /// that domain's engine, reading only domain-owned state (its cells' pmon
  /// + its rings) — no cross-domain read, no host race, and the merged
  /// series is bit-identical at any --sim-threads because every sample is
  /// (simulated time, domain)-keyed.
  void attach(machine::Machine& m, sim::Duration period_ns = kDefaultPeriodNs);

  /// Take each domain's final sample at its engine's current simulated time
  /// (the observer lane drops samples past the last event, so the tail
  /// interval is captured here) and merge the domains' series in (time,
  /// domain) order into samples(). Call after Machine::run().
  void finish();

  [[nodiscard]] const std::vector<MetricsSample>& samples() const noexcept {
    return samples_;
  }

  /// Interval time series as CSV: per-interval deltas of the interconnect
  /// counters plus instantaneous slot utilization. `label`, when non-empty,
  /// is prepended as a first "job" column (the SweepRunner merge format);
  /// `header` controls whether the header row is emitted. Deltas are
  /// tracked per domain lane; multi-domain output adds a `domain` column
  /// after time_ns (single-domain output keeps the seed format).
  void write_csv(std::ostream& os, std::string_view label = {},
                 bool header = true) const;

 private:
  void sample_domain(unsigned d);
  void arm_domain(unsigned d);

  machine::Machine* machine_ = nullptr;
  sim::Duration period_ = kDefaultPeriodNs;
  unsigned domains_ = 1;
  std::vector<MetricsSample> samples_;  // merged at finish()
  std::vector<std::vector<MetricsSample>> domain_samples_;  // per domain
};

}  // namespace ksr::obs
