#pragma once

#include "ksr/study/sweep.hpp"
#include "ksr/sync/barrier.hpp"

// The barrier grid of Figs. 4 and 5 and §3.2.3: each of the nine barriers
// at each processor count, one `barrier` registry-row job per cell.
namespace ksr::study {

struct BarrierGrid {
  /// Seconds per episode, kind-major in all_barrier_kinds() order:
  /// seconds[k * procs.size() + i] is kind k at procs[i].
  std::vector<double> seconds;
  /// Microseconds per episode: one row per kind, one column per procs.
  TextTable table;
};

/// Run `base` (its machine and iters = episodes) as the barrier row for
/// every kind at every count in `procs`, under the labels
/// "<prefix><kind> p=<procs>".
inline BarrierGrid barrier_grid(Study& study, serve::JobSpec base,
                                const std::vector<unsigned>& procs,
                                const std::string& prefix) {
  const auto kinds = sync::all_barrier_kinds();
  base.workload = "barrier";
  std::vector<std::function<double(Job&)>> jobs;
  for (sync::BarrierKind kind : kinds) {
    base.kind = sync::barrier_kind_spelling(kind);
    for (unsigned p : procs) {
      base.procs = p;
      jobs.emplace_back([spec = base,
                         label = prefix + std::string(to_string(kind)) +
                                 " p=" + std::to_string(p)](Job& job) {
        return job.run(spec, label).at("seconds");
      });
    }
  }
  std::vector<std::string> headers{"barrier \\ procs"};
  for (unsigned p : procs) headers.push_back(std::to_string(p));
  BarrierGrid grid{study.run(jobs), TextTable(std::move(headers))};
  std::size_t j = 0;
  for (sync::BarrierKind kind : kinds) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (std::size_t i = 0; i < procs.size(); ++i) {
      row.push_back(TextTable::num(grid.seconds[j++] * 1e6, 1));
    }
    grid.table.add_row(std::move(row));
  }
  return grid;
}

}  // namespace ksr::study
