#pragma once

// Shared helpers for the paper-reproduction bench binaries. Each binary
// regenerates one table or figure of the paper; `--csv` prints
// machine-readable output, `--quick` shrinks sizes for smoke runs and
// `--full` approaches paper-like sizes.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "ksr/host/sweep_runner.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/study/metrics.hpp"
#include "ksr/study/table.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr::bench {

using host::SweepRunner;
using study::BenchOptions;
using study::TextTable;

/// RAII observability for machines built on the main thread: attaches a
/// JobObs to `m` for the current scope and streams it into the session on
/// destruction. Declare it right after the machine (so it is destroyed — and
/// takes its final metrics sample — while the machine is still alive).
class ScopedObs {
 public:
  ScopedObs(obs::Session& session, machine::Machine& m, std::string label)
      : session_(session), label_(std::move(label)) {
    if (session_.active()) {
      obs_ = session_.job();
      obs_.attach(m);
    }
  }
  ~ScopedObs() {
    if (session_.active()) {
      obs_.finish();
      session_.collect(std::move(obs_), label_);
    }
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  obs::Session& session_;
  std::string label_;
  obs::JobObs obs_;
};

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==================================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << ")\n"
            << "==================================================================\n";
}

/// Host-side (wall-clock) metrics for one paper bench binary. Accumulate
/// `events_dispatched()` from every machine the binary creates, then print a
/// single machine-parsable line at exit:
///
///   [host] bench=<name> events_dispatched=<n> wall_ms=<ms> jobs=<j>
///       sim_threads=<t> quanta=<q>
///
/// `scripts/bench_host.sh` greps these lines into BENCH_host.json; the
/// events_dispatched total doubles as a bit-determinism fingerprint (it must
/// be identical across host-side optimisation work, including any `--jobs`
/// or `--sim-threads` value). `quanta` counts conservative-quantum barriers
/// crossed by the parallel engine (0 on the serial inline path). The line
/// goes to stderr so that `--csv` stdout stays byte-for-byte diffable
/// between builds.
class HostMetrics {
 public:
  explicit HostMetrics(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void add(machine::Machine& m) {
    events_ += m.parallel_engine().events_dispatched();
    quanta_ += m.parallel_engine().quanta();
  }

  /// Jobs run on pool threads and destroy their Machine before merging, so
  /// they report the engine's final event count through their result struct.
  void add_events(std::uint64_t n) { events_ += n; }

  /// Quantum-barrier count from a pool-thread job's parallel engine.
  void add_quanta(std::uint64_t n) { quanta_ += n; }

  /// Record the effective host worker count for the [host] line.
  void set_jobs(unsigned jobs) { jobs_ = jobs; }

  /// Record the per-simulation engine thread count for the [host] line.
  void set_sim_threads(unsigned n) { sim_threads_ = n; }

  /// Wall-clock milliseconds a warm-start fork saved by restoring a shared
  /// checkpoint instead of re-simulating the warm-up (docs/CHECKPOINT.md).
  /// Calling this at all (even with 0) adds ` warm_saved_ms=` to the [host]
  /// line; benches without a warm-start mode keep the original line.
  void add_warm_saved_ms(std::uint64_t ms) {
    warm_start_ = true;
    warm_saved_ms_ += ms;
  }

  ~HostMetrics() {
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start_);
    std::cerr << "[host] bench=" << name_ << " events_dispatched=" << events_
              << " wall_ms=" << wall.count() << " jobs=" << jobs_
              << " sim_threads=" << sim_threads_ << " quanta=" << quanta_;
    if (warm_start_) std::cerr << " warm_saved_ms=" << warm_saved_ms_;
    std::cerr << "\n";
  }

  HostMetrics(const HostMetrics&) = delete;
  HostMetrics& operator=(const HostMetrics&) = delete;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t events_ = 0;
  std::uint64_t quanta_ = 0;
  unsigned jobs_ = 1;
  unsigned sim_threads_ = 1;
  bool warm_start_ = false;
  std::uint64_t warm_saved_ms_ = 0;
};

/// Mean barrier episode time on `m` using `kind`, over `episodes` episodes
/// with small random arrival skew (as the paper measures).
inline double barrier_episode_seconds(machine::Machine& m,
                                      sync::BarrierKind kind, int episodes) {
  auto barrier = sync::make_barrier(m, kind);
  double total = 0;
  m.run([&](machine::Cpu& cpu) {
    // One warm-up episode outside the timed region.
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    const double dt = cpu.seconds() - t0;
    if (dt > total) total = dt;
  });
  return total / episodes;
}

}  // namespace ksr::bench
