#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ksr/host/sweep_runner.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/serve/job.hpp"
#include "ksr/study/metrics.hpp"
#include "ksr/study/table.hpp"

// The one sweep harness behind every paper bench binary and ksrsim's run
// commands. A binary declares its simulations as jobs; the harness builds
// each job's machines (with --sim-threads applied), attaches and finishes
// their observability, counts whole-machine events and quanta, shards the
// jobs over host::SweepRunner (--jobs), merges observability in submission
// order and prints one `[host]` line:
//
//   [host] bench=<name> events_dispatched=<n> wall_ms=<ms> jobs=<j>
//       sim_threads=<t> quanta=<q>[ warm_saved_ms=<w>]
//
// events_dispatched sums parallel_engine().events_dispatched() over every
// machine, so it covers every domain of a multi-domain run. It is the
// bit-determinism fingerprint: identical for any --jobs, --sim-threads or
// observability flags (ctest golden_digests: scripts/golden.sh against
// bench/golden.tsv).
// The line goes to stderr so --csv stdout stays byte-for-byte diffable
// between builds; bench/report.py folds it into BENCH_host.json.
namespace ksr::study {

/// What Job::run returns: the registry row's result object and the machine
/// it ran on, which lives until the job's next call, so its pmon and topo
/// counters can still be read.
struct JobRun {
  serve::Json result;
  machine::Machine& machine;

  /// The numeric result field `key`; throws std::out_of_range when absent.
  [[nodiscard]] double at(std::string_view key) const {
    const serve::Json* v = result.find(key);
    if (v == nullptr || !v->is_number()) {
      throw std::out_of_range("no numeric result field '" +
                              std::string(key) + "'");
    }
    return v->as_double();
  }
};

/// One job's handle: builds its machines one after another.
class Job {
 public:
  /// Run `spec` (a serve::workloads() row) on a machine built from
  /// spec.machine_config() through machine(), under `label` (default
  /// "<workload> p=<procs>"). It runs serve::run_workload, as ksrsim and
  /// the serve daemon do, so the result bytes are serve::execute(spec)'s.
  /// Throws on an invalid spec or a result object that does not parse.
  JobRun run(const serve::JobSpec& spec, std::string label = {}) {
    const std::string bad = spec.validate();
    if (!bad.empty()) throw std::invalid_argument("job: " + bad);
    if (label.empty()) {
      label = spec.workload + " p=" + std::to_string(spec.procs);
    }
    machine::Machine& m = machine(spec.machine_config(1), std::move(label));
    std::string err;
    serve::Json result =
        serve::Json::parse(serve::run_workload(spec, m).result, &err);
    if (!err.empty()) throw std::runtime_error("job: result: " + err);
    return {std::move(result), m};
  }

  /// Build the machine `cfg` names with --sim-threads applied and attach the
  /// job's observability under `label`. The job's previous machine, if any,
  /// is finished, counted and destroyed first, so a job holds one machine
  /// at a time; the returned one lives until the next call or the job's
  /// return.
  machine::Machine& machine(const machine::MachineConfig& cfg,
                            std::string label) {
    finish();
    machine_ = machine::make_machine(cfg.with_sim_threads(sim_threads_));
    obs_ = session_->job();
    obs_.attach(*machine_);
    label_ = std::move(label);
    return *machine_;
  }

 private:
  friend class Study;
  Job(const obs::Session& session, unsigned sim_threads)
      : session_(&session), sim_threads_(sim_threads) {}

  void finish() {
    if (!machine_) return;
    obs_.finish();
    events_ += machine_->parallel_engine().events_dispatched();
    quanta_ += machine_->parallel_engine().quanta();
    observed_.emplace_back(std::move(obs_), std::move(label_));
    machine_.reset();
  }

  const obs::Session* session_;
  unsigned sim_threads_;
  std::uint64_t events_ = 0;
  std::uint64_t quanta_ = 0;
  std::vector<std::pair<obs::JobObs, std::string>> observed_;
  obs::JobObs obs_;
  std::string label_;
  std::unique_ptr<machine::Machine> machine_;  // destroyed before obs_
};

/// One binary's sweep: owns the observability session, the host runner and
/// the `[host]` line.
class Study {
 public:
  Study(const BenchOptions& opt, std::string name)
      : name_(std::move(name)),
        sim_threads_(opt.sim_threads),
        session_(opt.obs, name_),
        runner_(opt.jobs) {}
  // A Study left by an exception produced no result: its outputs still
  // close (the session's destructor), but it prints no [host] fingerprint.
  ~Study() {
    if (std::uncaught_exceptions() == 0) (void)close();
  }
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Run `jobs` over the host runner and return their results in
  /// submission order. Observability is collected in the same order, so
  /// every output is byte-identical for any --jobs. If a job throws, the
  /// earliest-submitted exception propagates (host::SweepRunner's error
  /// contract) and nothing of the batch is collected or counted.
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R(Job&)>>& jobs) {
    std::vector<Job> handles;
    std::vector<std::function<R()>> tasks;
    handles.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      handles.push_back(Job(session_, sim_threads_));
      tasks.emplace_back([&, i] {
        R r = jobs[i](handles[i]);
        handles[i].finish();
        return r;
      });
    }
    std::vector<R> out = runner_.run(tasks);
    for (Job& job : handles) {
      events_ += job.events_;
      quanta_ += job.quanta_;
      if (!session_.active()) continue;
      for (auto& [obs, label] : job.observed_) {
        session_.collect(std::move(obs), label);
      }
    }
    return out;
  }

  /// Wall time a warm-start fork saved (docs/CHECKPOINT.md). Calling this
  /// at all adds ` warm_saved_ms=` to the [host] line.
  void add_warm_saved_ms(std::uint64_t ms) {
    warm_start_ = true;
    warm_saved_ms_ += ms;
  }

  /// The [host] fingerprint so far: every domain of every machine run.
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept {
    return events_;
  }

  /// Close the observability outputs and print the [host] line (once; the
  /// destructor calls it). False if any output failed to write.
  bool close() {
    if (!closed_) {
      closed_ = true;
      session_.close();
      const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_);
      std::cerr << "[host] bench=" << name_ << " events_dispatched=" << events_
                << " wall_ms=" << wall.count() << " jobs=" << runner_.jobs()
                << " sim_threads=" << sim_threads_ << " quanta=" << quanta_;
      if (warm_start_) std::cerr << " warm_saved_ms=" << warm_saved_ms_;
      std::cerr << "\n";
    }
    return session_.ok();
  }

 private:
  std::string name_;
  unsigned sim_threads_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  obs::Session session_;
  host::SweepRunner runner_;
  std::uint64_t events_ = 0;
  std::uint64_t quanta_ = 0;
  bool warm_start_ = false;
  std::uint64_t warm_saved_ms_ = 0;
  bool closed_ = false;
};

}  // namespace ksr::study
