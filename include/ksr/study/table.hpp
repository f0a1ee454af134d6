#pragma once

#include <cstddef>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ksr/machine/config.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/util/flags.hpp"

// Plain-text / CSV table rendering for the bench harnesses. Every bench
// binary prints the same rows the paper's table or figure reports, plus an
// optional CSV block for replotting.
namespace ksr::study {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  TextTable& add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  /// Format a double with `prec` significant decimals.
  [[nodiscard]] static std::string num(double v, int prec = 5) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
  }
  [[nodiscard]] static std::string sci(double v, int prec = 3) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(prec) << v;
    return os.str();
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto line = [&] {
      os << '+';
      for (auto w : width) os << std::string(w + 2, '-') << '+';
      os << '\n';
    };
    auto emit = [&](const std::vector<std::string>& cells) {
      os << '|';
      for (std::size_t c = 0; c < width.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : std::string{};
        os << ' ' << s << std::string(width[c] - s.size() + 1, ' ') << '|';
      }
      os << '\n';
    };
    line();
    emit(headers_);
    line();
    for (const auto& row : rows_) emit(row);
    line();
  }

  void print_csv(std::ostream& os = std::cout) const {
    auto emit = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c) os << ',';
        os << cells[c];
      }
      os << '\n';
    };
    emit(headers_);
    for (const auto& row : rows_) emit(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// The banner every bench binary prints above its tables.
inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "==================================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << ")\n"
            << "==================================================================\n";
}

/// Shared bench-binary CLI, one row per flag (ksr/util/flags.hpp), holding
/// only the rows every binary honours: `--csv` switches the output format,
/// `--quick` shrinks sizes for smoke runs, `--jobs N` shards the sweep over
/// N host threads and `--sim-threads N` threads each single simulation
/// through the conservative-quantum ParallelEngine (docs/PARALLEL.md);
/// results are bit-identical for any value of either. A bench's own knobs
/// (fig3's --full, fig8's checkpoint flags) are its extra rows. The
/// observability rows (obs::SessionOptions::flags, docs/OBSERVABILITY.md)
/// never change simulated timing or the events_dispatched fingerprints —
/// enforced by test and bench_host.sh. Unknown or malformed arguments warn
/// on stderr and keep the defaults.
struct BenchOptions {
  bool csv = false;
  bool quick = false;  // reduced sizes for smoke runs
  unsigned jobs = 0;   // host shards; 0 = hardware concurrency
  unsigned sim_threads = machine::MachineConfig{}.sim_threads;  // per sim
  obs::SessionOptions obs;  // --trace ... --topo-report

  /// The shared rows, bound to this struct.
  std::vector<util::Flag> flags() {
    std::vector<util::Flag> rows = {
        {"csv", &csv, "CSV output"},
        {"quick", &quick, "reduced sizes for smoke runs"},
        {"jobs", &jobs, "N  host shards (0 = one per core)"},
        {"sim-threads", &sim_threads, "N  host threads per simulation"},
    };
    const std::vector<util::Flag> obs_rows = obs.flags();
    rows.insert(rows.end(), obs_rows.begin(), obs_rows.end());
    return rows;
  }

  /// Parse the shared rows plus a bench's `extra` rows.
  static BenchOptions parse(int argc, char** argv,
                            std::vector<util::Flag> extra = {}) {
    BenchOptions o;
    std::vector<util::Flag> rows = o.flags();
    rows.insert(rows.end(), extra.begin(), extra.end());
    (void)util::parse_flags(argc, argv, 1, rows);
    // jobs sweep shards × sim_threads engine threads all run at once; warn
    // when that oversubscribes the host. Results are bit-identical either
    // way — only wall time suffers.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0) {
      const unsigned j = o.jobs == 0 ? hw : o.jobs;
      const unsigned st = o.sim_threads == 0 ? hw : o.sim_threads;
      if (static_cast<unsigned long long>(j) * st > hw) {
        std::cerr << "warning: --jobs " << j << " x --sim-threads " << st
                  << " = " << j * st << " host threads on " << hw
                  << " core(s); expect oversubscription (results are "
                     "unaffected, wall time may suffer)\n";
      }
    }
    return o;
  }
};

}  // namespace ksr::study
