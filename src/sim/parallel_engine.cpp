#include "ksr/sim/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

namespace ksr::sim {

namespace {
constexpr Time kNever = std::numeric_limits<Time>::max();

[[nodiscard]] std::uint64_t wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ParallelEngine::ParallelEngine(const Config& cfg) : cfg_(cfg) {
  if (cfg_.domains == 0) {
    throw std::invalid_argument("ParallelEngine: domains == 0");
  }
  if (cfg_.domains > 1 && cfg_.quantum_ns == 0) {
    throw std::invalid_argument(
        "ParallelEngine: domains > 1 requires a positive quantum "
        "(the minimum cross-domain latency of the model)");
  }
  threads_ = cfg_.threads == 0
                 ? std::max(1u, std::thread::hardware_concurrency())
                 : cfg_.threads;
  // Domain d belongs to slot d % threads: slots beyond domains() could
  // never hold work, so every slot (the coordinator's last one included)
  // holds a domain, and a one-domain engine always runs inline.
  threads_ = std::min(threads_, cfg_.domains);
  engines_.reserve(cfg_.domains);
  for (unsigned d = 0; d < cfg_.domains; ++d) {
    engines_.push_back(std::make_unique<Engine>());
  }
  channels_.resize(static_cast<std::size_t>(cfg_.domains) * cfg_.domains);
  channel_stats_.resize(channels_.size());
  domain_errors_.resize(cfg_.domains);
  slot_wall_ns_.resize(threads_, 0);
  quantum_domain_wall_ns_.resize(cfg_.domains, 0);
  domain_wall_ns_.resize(cfg_.domains, 0);
  critical_quanta_.resize(cfg_.domains, 0);
}

ParallelEngine::~ParallelEngine() { stop_pool(); }

void ParallelEngine::set_tie_break_seed(std::uint64_t seed) noexcept {
  for (auto& eng : engines_) eng->set_tie_break_seed(seed);
}

void ParallelEngine::assert_quiescent(const char* what) const {
  for (unsigned d = 0; d < domains(); ++d) {
    if (!engines_[d]->quiescent()) {
      throw std::logic_error(
          std::string(what) + ": domain " + std::to_string(d) +
          " is not quiescent (" + std::to_string(engines_[d]->live_fibers()) +
          " live fiber(s), next event at " +
          (engines_[d]->next_event_time() == kNever
               ? std::string("<none>")
               : std::to_string(engines_[d]->next_event_time())) +
          "ns) — checkpoints are only legal between run() calls");
    }
  }
  const unsigned d_count = domains();
  for (unsigned src = 0; src < d_count; ++src) {
    for (unsigned dst = 0; dst < d_count; ++dst) {
      const auto& q = channels_[src * d_count + dst].q;
      if (!q.empty()) {
        throw std::logic_error(
            std::string(what) + ": boundary channel " + std::to_string(src) +
            "->" + std::to_string(dst) + " holds " + std::to_string(q.size()) +
            " undelivered packet(s) (earliest t=" + std::to_string(q.front().t) +
            "ns) — capture refused; drain all channels before checkpointing");
      }
    }
  }
}

std::uint64_t ParallelEngine::events_dispatched() const noexcept {
  std::uint64_t n = 0;
  for (const auto& eng : engines_) n += eng->events_dispatched();
  return n;
}

Time ParallelEngine::now() const noexcept {
  Time latest = 0;
  for (const auto& eng : engines_) latest = std::max(latest, eng->now());
  return latest;
}

Time ParallelEngine::next_event_time() const noexcept {
  Time next = kNever;
  for (const auto& eng : engines_) {
    next = std::min(next, eng->next_event_time());
  }
  return next;
}

void ParallelEngine::send(unsigned src, unsigned dst, Time t, InlineFn fn) {
  if (src >= domains() || dst >= domains()) {
    throw std::out_of_range("ParallelEngine::send: domain out of range");
  }
  if (!running_) {
    // Setup phase: seed the destination queue directly (any t >= 0).
    engines_[dst]->at(t, std::move(fn));
    return;
  }
  // Conservative lookahead rule: a boundary event produced inside quantum k
  // must not land before quantum k+1 — otherwise its destination may have
  // already executed past t concurrently.
  if (t < horizon_) {
    throw std::logic_error(
        "ParallelEngine::send: lookahead violation — boundary event at t=" +
        std::to_string(t) + " before the current quantum ends at " +
        std::to_string(horizon_) + " (quantum=" + std::to_string(cfg_.quantum_ns) +
        "ns); the quantum must not exceed the minimum cross-domain latency");
  }
  channel(src, dst).q.push_back(Packet{t, std::move(fn)});
}

void ParallelEngine::advance_slot(unsigned slot) {
  std::uint64_t slot_wall = 0;
  for (unsigned d = slot; d < domains(); d += threads_) {
    const std::uint64_t t0 = wall_now_ns();
    try {
      engines_[d]->run_until(horizon_);
    } catch (...) {
      if (!domain_errors_[d]) domain_errors_[d] = std::current_exception();
    }
    const std::uint64_t dt = wall_now_ns() - t0;
    quantum_domain_wall_ns_[d] = dt;  // this thread alone owns domain d
    domain_wall_ns_[d] += dt;
    slot_wall += dt;
  }
  slot_wall_ns_[slot] = slot_wall;
}

void ParallelEngine::start_pool() {
  if (threads_ <= 1 || !pool_.empty()) return;
  pool_.reserve(threads_ - 1);
  for (unsigned w = 0; w + 1 < threads_; ++w) {
    pool_.emplace_back([this, w] { worker_main(w); });
  }
}

void ParallelEngine::stop_pool() noexcept {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
  shutdown_ = false;
}

void ParallelEngine::worker_main(unsigned slot) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
    }
    advance_slot(slot);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++arrived_;
      if (arrived_ == threads_ - 1) cv_done_.notify_one();
    }
  }
}

void ParallelEngine::run_quantum_phase() {
  const std::uint64_t phase_t0 = wall_now_ns();
  if (threads_ == 1) {
    // Serial quantum loop (still conservative, still barrier-merged):
    // the --sim-threads 1 reference every thread count must match.
    advance_slot(0);
  } else {
    {
      std::lock_guard<std::mutex> lk(mu_);
      arrived_ = 0;
      ++epoch_;
    }
    cv_work_.notify_all();
    // The coordinator advances the last slot's domains itself rather than
    // idling at the barrier.
    advance_slot(threads_ - 1);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return arrived_ == threads_ - 1; });
  }
  // Self-profiler fold (coordinator only; the barrier above published every
  // worker's scratch). Phase wall is the end-to-end quantum time; each
  // slot's idle share is its tail wait at this barrier.
  const std::uint64_t phase_wall = wall_now_ns() - phase_t0;
  phase_wall_ns_ += phase_wall;
  for (unsigned s = 0; s < threads_; ++s) {
    barrier_wait_ns_ += phase_wall - std::min(phase_wall, slot_wall_ns_[s]);
  }
  unsigned critical = 0;
  for (unsigned d = 1; d < domains(); ++d) {
    if (quantum_domain_wall_ns_[d] > quantum_domain_wall_ns_[critical]) {
      critical = d;
    }
  }
  ++critical_quanta_[critical];
}

ParallelEngine::HostProfile ParallelEngine::host_profile() const {
  HostProfile p;
  p.threads = threads_;
  p.quanta = quanta_;
  p.phase_wall_ns = phase_wall_ns_;
  p.barrier_wait_ns = barrier_wait_ns_;
  p.domain_wall_ns = domain_wall_ns_;
  p.critical_quanta = critical_quanta_;
  return p;
}

void ParallelEngine::merge_channels() {
  const unsigned d_count = domains();
  std::vector<Packet> merged;
  for (unsigned dst = 0; dst < d_count; ++dst) {
    merged.clear();
    for (unsigned src = 0; src < d_count; ++src) {
      auto& q = channel(src, dst).q;
      if (!q.empty()) {
        // Per-channel lifetime counters (topo report). horizon_ is the
        // just-finished quantum's exclusive end, and send() guaranteed
        // every packet lands at or after it, so slack is non-negative.
        ChannelStats& cs = channel_stats_[src * d_count + dst];
        cs.packets += q.size();
        cs.max_per_quantum = std::max<std::uint64_t>(cs.max_per_quantum,
                                                     q.size());
        for (const Packet& p : q) {
          const std::uint64_t slack =
              static_cast<std::uint64_t>(p.t - horizon_) / cfg_.quantum_ns;
          ++cs.slack_hist[std::min<std::uint64_t>(
              slack, cs.slack_hist.size() - 1)];
        }
      }
      for (auto& p : q) merged.push_back(std::move(p));
      q.clear();
    }
    if (merged.empty()) continue;
    // Deterministic merge order: (time, src domain, channel append order).
    // stable_sort keeps the src-major append order for same-time packets;
    // Engine::at() then assigns the destination's tie-break sequence in
    // exactly this order (hashed when a fuzz seed is active), so the merged
    // schedule is a pure function of simulated data — bit-identical at any
    // thread count.
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const Packet& a, const Packet& b) { return a.t < b.t; });
    boundary_packets_ += merged.size();
    for (auto& p : merged) engines_[dst]->at(p.t, std::move(p.fn));
  }
}

void ParallelEngine::run() {
  if (domains() == 1) {
    // Serial inline path: byte-for-byte the plain Engine, no quantum loop,
    // no barrier, no pool — zero overhead over PR 1 (perf gate).
    engines_[0]->run();
    return;
  }
  start_pool();
  std::fill(domain_errors_.begin(), domain_errors_.end(), nullptr);
  running_ = true;
  try {
    for (;;) {
      const Time next = next_event_time();
      if (next == kNever) break;
      // The quantum containing the earliest pending event; events landing
      // exactly on a quantum edge kΔ belong to [kΔ, (k+1)Δ) — the horizon
      // is exclusive, matching run_until().
      horizon_ = (next / cfg_.quantum_ns + 1) * cfg_.quantum_ns;
      run_quantum_phase();
      ++quanta_;
      for (unsigned d = 0; d < domains(); ++d) {
        if (domain_errors_[d]) {
          std::exception_ptr ex = domain_errors_[d];
          domain_errors_[d] = nullptr;
          std::rethrow_exception(ex);
        }
      }
      merge_channels();
    }
    running_ = false;
    // End-of-run checks in domain order (deterministic failure order).
    for (auto& eng : engines_) eng->finish_run();
  } catch (...) {
    running_ = false;
    throw;
  }
}

}  // namespace ksr::sim
