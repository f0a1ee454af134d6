#include "ksr/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

namespace ksr::obs {

void MetricsRegistry::sample_domain(unsigned d) {
  MetricsSample s;
  s.t = machine_->engine_of(d).now();
  s.domain = d;
  for (unsigned c = 0; c < machine_->nproc(); ++c) {
    if (machine_->domain_of_cell(c) == d) s.pmon.add(machine_->cell_pmon(c));
  }
  s.net = machine_->net_snapshot_of(d);
  domain_samples_[d].push_back(s);
}

void MetricsRegistry::arm_domain(unsigned d) {
  machine_->engine_of(d).observe_in(period_, [this, d] {
    sample_domain(d);
    arm_domain(d);
  });
}

void MetricsRegistry::attach(machine::Machine& m, sim::Duration period_ns) {
  machine_ = &m;
  period_ = period_ns ? period_ns : kDefaultPeriodNs;
  // One observer chain per domain, on that domain's engine, reading only
  // domain-owned state (its cells' pmon, its rings). Each chain is
  // deterministic on the simulated clock; finish() merges the per-domain
  // series in (time, domain) order.
  domains_ = m.domains();
  domain_samples_.assign(domains_, {});
  // Armed when the first run starts, so a restore() between attach and
  // run finds the engines quiescent and the chain starts on its clock.
  m.before_next_run([this] {
    for (unsigned d = 0; d < domains_; ++d) arm_domain(d);
  });
}

void MetricsRegistry::finish() {
  if (machine_ == nullptr) return;
  // Tail sample per domain (the observer lane drops samples past a
  // domain's last event), then the (time, domain)-ordered merge.
  for (unsigned d = 0; d < domains_; ++d) {
    if (domain_samples_[d].empty() ||
        domain_samples_[d].back().t != machine_->engine_of(d).now()) {
      sample_domain(d);
    }
  }
  samples_.clear();
  for (const auto& ds : domain_samples_) {
    samples_.insert(samples_.end(), ds.begin(), ds.end());
  }
  std::stable_sort(samples_.begin(), samples_.end(),
                   [](const MetricsSample& a, const MetricsSample& b) {
                     return a.t != b.t ? a.t < b.t : a.domain < b.domain;
                   });
}

void MetricsRegistry::write_csv(std::ostream& os, std::string_view label,
                                bool header) const {
  // Single-domain output keeps the seed format: no domain column.
  const bool multi = domains_ > 1;
  if (header) {
    if (!label.empty()) os << "job,";
    os << "time_ns,";
    if (multi) os << "domain,";
    os << "slot_util,d_ring_requests,d_ring_nacks,nack_rate,"
          "d_inject_wait_ns,wait_per_req_ns,d_localcache_misses,"
          "d_invalidations,d_snarfs\n";
  }
  // One delta lane per domain: every sample covers one domain's counters,
  // so deltas are per-domain too.
  std::vector<cache::PerfMonitor> prev_pmon(domains_);
  std::vector<machine::NetSnapshot> prev_net(domains_);
  char buf[64];
  auto ratio = [&buf](std::uint64_t num, std::uint64_t den) {
    std::snprintf(buf, sizeof buf, "%.6f",
                  den ? static_cast<double>(num) / static_cast<double>(den)
                      : 0.0);
    return std::string(buf);
  };
  for (const MetricsSample& s : samples_) {
    cache::PerfMonitor& pp = prev_pmon[s.domain];
    machine::NetSnapshot& pn = prev_net[s.domain];
    const std::uint64_t d_req = s.pmon.ring_requests - pp.ring_requests;
    const std::uint64_t d_nack = s.pmon.ring_nacks - pp.ring_nacks;
    const sim::Duration d_wait = s.net.inject_wait_ns - pn.inject_wait_ns;
    if (!label.empty()) os << label << ',';
    os << s.t << ',';
    if (multi) os << s.domain << ',';
    os << ratio(s.net.in_flight, s.net.slots) << ',' << d_req
       << ',' << d_nack << ',' << ratio(d_nack, d_req) << ',' << d_wait << ','
       << ratio(d_wait, d_req) << ','
       << s.pmon.localcache_misses - pp.localcache_misses << ','
       << s.pmon.invalidations_received - pp.invalidations_received
       << ',' << s.pmon.snarfs - pp.snarfs << '\n';
    pp = s.pmon;
    pn = s.net;
  }
}

}  // namespace ksr::obs
