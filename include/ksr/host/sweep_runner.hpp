#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

// Host-side parallel experiment runner.
//
// The paper's experiment suite is a sweep of *independent* simulations:
// every table/figure loops over processor counts, lock/barrier variants and
// machine configs, and each iteration builds its own Machine (engine, heap,
// caches, RNGs) from scratch. SweepRunner shards those iterations across
// host cores while keeping the output bit-identical to the serial run.
//
// Determinism contract:
//   * A job is self-contained: it constructs everything it touches (its own
//     Machine + workload) and returns a plain result value. Nothing in the
//     simulator is process-global (no static RNGs, counters or tracer
//     singletons — audited and kept that way by test_host_runner), so two
//     machines may run on two host threads without sharing a byte.
//   * Each job writes only its own result slot; the caller reads the slots
//     in submission order after the batch completes. Host scheduling can
//     reorder *execution* freely but never *observation*, so tables, CSV
//     output and events_dispatched fingerprints are byte-identical for any
//     --jobs value (enforced by the golden_digests ctest).
//   * jobs() == 1 runs every job inline on the calling thread — the exact
//     serial execution, with no pool threads created at all.
//
// Error contract: with jobs() == 1 an exception aborts the sweep at the
// failing job (classic serial semantics). With a pool, every job still runs,
// then the exception of the earliest-submitted failing job is rethrown — the
// same exception surfaces either way.
namespace ksr::host {

class SweepRunner {
 public:
  /// `jobs` == 0 picks default_jobs(). The pool threads (when jobs > 1) are
  /// created here and live until destruction; batches reuse them.
  explicit SweepRunner(unsigned jobs = 0);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Host worker count this runner shards over (>= 1).
  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  [[nodiscard]] static unsigned default_jobs() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
  }

  /// Execute `task(0) .. task(count-1)`, sharded over the pool. Returns when
  /// all indices finished; rethrows per the error contract above. `task`
  /// must be safe to invoke concurrently from several threads on distinct
  /// indices (each index writing only its own output slot).
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  /// Run a vector of result-returning jobs; results come back in submission
  /// order regardless of execution interleaving.
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& tasks) {
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs results into shared words; "
                  "concurrent per-index writes would race. Use char/int.");
    std::vector<R> out(tasks.size());
    run_indexed(tasks.size(),
                [&](std::size_t i) { out[i] = tasks[i](); });
    return out;
  }

 private:
  void worker_loop();

  unsigned jobs_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_work_;  // workers wait here for a new batch
  std::condition_variable cv_done_;  // the submitter waits here

  // Current batch, published under mu_ by bumping batch_. Workers claim
  // indices lock-free through next_, then bump exited_ under mu_ once they
  // leave the claim loop; run_indexed waits for exited_ == jobs_ before
  // resetting any of this state, so a late-waking worker can never observe
  // task_/count_/next_ from a different batch. Each errors_ slot is written
  // by at most the one worker that claimed that index, and read by the
  // submitter only after the batch completes.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t exited_ = 0;  // workers that observed and left the batch
  std::uint64_t batch_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace ksr::host
