#include "ksr/obs/topo.hpp"

#include <algorithm>
#include <ostream>

namespace ksr::obs::topo {

namespace {

// All numbers in the report are u64; ratios are rendered as integer parts
// per million so the bytes cannot depend on host float formatting.
[[nodiscard]] std::uint64_t ppm(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return 0;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(num) * 1'000'000u) / den);
}

void ppm_cell(std::ostream& os, std::uint64_t v) {
  // "12.3456%" rendered from ppm without floats: 123456 ppm -> 12.3456.
  os << v / 10'000 << '.';
  const std::uint64_t frac = v % 10'000;
  os << frac / 1000 << (frac / 100) % 10 << (frac / 10) % 10 << frac % 10
     << '%';
}

}  // namespace

std::uint64_t util_ppm(const RingUse& r) noexcept {
  const unsigned __int128 den =
      static_cast<unsigned __int128>(r.slots) * r.elapsed_ns;
  if (den == 0) return 0;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(r.busy_slot_ns) * 1'000'000u) / den);
}

std::uint64_t peak_util_ppm(const Snapshot& s, unsigned level) {
  std::uint64_t peak = 0;
  for (const RingUse& r : s.rings) {
    if (r.level == level) peak = std::max(peak, util_ppm(r));
  }
  return peak;
}

const ShardUse* hottest_shard(const Snapshot& s) {
  const ShardUse* best = nullptr;
  for (const ShardUse& sh : s.shards) {
    if (best == nullptr || sh.requests > best->requests) best = &sh;
  }
  return best;
}

void write_report(std::ostream& os, const Snapshot& s) {
  os << "## topology\n"
     << "leaves=" << s.leaves << " cells_per_leaf=" << s.cells_per_leaf
     << " domains=" << s.domains << " quantum_ns=" << s.quantum_ns << "\n";
  if (s.domains > 1) {
    os << "quanta=" << s.quanta << " boundary_packets=" << s.boundary_packets
       << "\n";
  }

  os << "\n## rings (utilization = busy-slot-ns / slots*elapsed)\n";
  for (const RingUse& r : s.rings) {
    os << r.name << " level=" << r.level << " slots=" << r.slots
       << " packets=" << r.packets << " retries=" << r.retries
       << " inject_wait_ns=" << r.inject_wait_ns << " util=";
    ppm_cell(os, util_ppm(r));
    os << "\n";
  }
  for (unsigned level : {0u, 1u}) {
    bool any = false;
    for (const RingUse& r : s.rings) any = any || r.level == level;
    if (any) {
      os << "peak_util level=" << level << " ";
      ppm_cell(os, peak_util_ppm(s, level));
      os << "\n";
    }
  }

  if (!s.shards.empty()) {
    os << "\n## directory shards (by home leaf)\n";
    for (const ShardUse& sh : s.shards) {
      os << "shard " << sh.home_leaf << " requests=" << sh.requests
         << " grants=" << sh.grants << " nacks=" << sh.nacks;
      if (s.domains > 1) os << " busy_ns=" << sh.busy_ns;
      os << " nack_rate=";
      ppm_cell(os, ppm(sh.nacks, sh.requests));
      os << "\n";
      for (const auto& [sp, n] : sh.hot) {
        os << "  hot subpage=" << sp << " requests=" << n << "\n";
      }
    }
    if (const ShardUse* hot = hottest_shard(s); hot != nullptr) {
      os << "hottest_shard leaf=" << hot->home_leaf
         << " requests=" << hot->requests << "\n";
    }
  }

  if (!s.channels.empty()) {
    os << "\n## boundary channels (slack in quanta)\n";
    for (const ChannelUse& c : s.channels) {
      if (c.packets == 0) continue;
      os << "channel " << c.src << "->" << c.dst << " packets=" << c.packets
         << " max_per_quantum=" << c.max_per_quantum << " slack_hist=";
      for (std::size_t b = 0; b < c.slack_hist.size(); ++b) {
        os << (b ? "," : "") << c.slack_hist[b];
      }
      os << "\n";
    }
  }

  if (s.leaves > 1 && !s.traffic.empty()) {
    os << "\n## cross-ring traffic (leaf->leaf packets)\n";
    std::uint64_t total = 0;
    std::uint64_t diag = 0;
    std::uint64_t best = 0;
    unsigned best_src = 0;
    unsigned best_dst = 0;
    for (unsigned i = 0; i < s.leaves; ++i) {
      for (unsigned j = 0; j < s.leaves; ++j) {
        const std::uint64_t v = s.traffic_at(i, j);
        total += v;
        if (i == j) diag += v;
        if (i != j && v > best) {
          best = v;
          best_src = i;
          best_dst = j;
        }
      }
    }
    os << "total=" << total << " same_leaf=" << diag
       << " cross_leaf=" << total - diag << " cross_ratio=";
    ppm_cell(os, ppm(total - diag, total));
    os << "\n";
    if (best != 0) {
      os << "hottest_pair " << best_src << "->" << best_dst
         << " packets=" << best << "\n";
    }
  }
}

void write_matrix_csv_header(std::ostream& os) {
  os << "job,src_leaf,dst_leaf,packets\n";
}

void write_matrix_csv(std::ostream& os, const Snapshot& s,
                      const std::string& job_label) {
  for (unsigned i = 0; i < s.leaves; ++i) {
    for (unsigned j = 0; j < s.leaves; ++j) {
      const std::uint64_t v = s.traffic_at(i, j);
      if (v == 0) continue;
      os << job_label << ',' << i << ',' << j << ',' << v << '\n';
    }
  }
}

}  // namespace ksr::obs::topo
