#pragma once

// ksrbench: the repository benchmark (ksrbench/README.md).
//
// Four workloads drive the simulator through its public API from one
// process. The benchmark measures from outside: it times the calls it makes
// and reads the counters the layers already expose. A traced pass records
// spans around every call into a layer, keeps them in memory and writes
// them out at the end.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ksrbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// In-memory span recorder. Spans nest on the benchmark's own thread; a
/// span's name is "<layer>.<call>" (a string literal), and spans opened with
/// id 0 inherit their parent's id, so every span of one simulation or
/// request shares an id. A disabled recorder ignores every call.
class Spans {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    int parent = -1;  // index into spans(); -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Spans(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  int open(const char* name, std::uint64_t id);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Total duration of every root span named `root`.
  [[nodiscard]] double root_seconds(const char* root) const;

  /// Self time per layer (the name before the first '.') over the trees
  /// rooted at spans named `root`: each span's duration minus the part its
  /// direct children cover. Sums to root_seconds(root).
  [[nodiscard]] std::map<std::string, double> self_seconds(
      const char* root) const;

  /// One JSON object per line: name, id, parent, start/end in µs from the
  /// first span.
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& s, const char* name, std::uint64_t id = 0)
      : s_(s), index_(s.open(name, id)) {}
  ~Scope() { s_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& s_;
  int index_;
};

/// Everything one pass of a workload measured.
struct Pass {
  double wall_s = 0.0;   // the measured part
  double setup_s = 0.0;  // machine construction and allocation (+ serve start)
  double cpu_s = 0.0;    // process CPU time of the whole pass
  std::vector<double> op_s;  // host time per operation: simulation or request
  std::map<std::string, std::vector<double>> latency_s;  // serve classes
  // Simulated per-layer counts: must repeat exactly from pass to pass.
  std::map<std::string, double> sim;
  // Host-time per-layer values (traced passes only).
  std::map<std::string, double> host;
  std::uint64_t attempted = 0;        // simulations or requests
  std::vector<std::string> failures;  // one line per failed check
};

using WorkloadFn = Pass (*)(std::uint64_t seed, Spans& spans);

struct Workload {
  const char* name;
  WorkloadFn run;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// The seed that reproduces the paper benches bit for bit.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Directory (relative to the working directory) for scratch files: the
/// serve store, the checkpoint preset, the socket and the span dumps.
inline constexpr const char* kOutDir = ".bench_out";

}  // namespace ksrbench
