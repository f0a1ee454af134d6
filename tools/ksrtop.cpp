// ksrtop — offline analysis of topology reports.
//
// Consumes the byte-stable report written by `--topo-report FILE` (ksrsim
// and every bench binary; see docs/OBSERVABILITY.md) and, optionally, its
// `FILE.matrix.csv` traffic-heatmap sibling, and answers the scale-out
// questions the report's tables encode:
//
//   ksrtop report.txt                     # one summary line per job
//   ksrtop report.txt --job "is p=512"    # one job in full, plus rankings
//   ksrtop report.txt --top 5             # ranking depth (default 10)
//   ksrtop report.txt --matrix report.txt.matrix.csv
//                                         # hottest leaf->leaf pairs
//
// Rankings: rings by slot utilization, directory shards by request count,
// traffic pairs by packets (cross-leaf only). All parsing and rendering is
// integer math over the report's own integer fields, so output is
// byte-identical across hosts for the same report.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ksr/util/flags.hpp"

namespace {

struct JobBlock {
  std::string label;
  std::vector<std::string> lines;
};

// "key=value" lookup inside a report line; value runs to the next space.
[[nodiscard]] std::string token_value(const std::string& line,
                                      const std::string& key) {
  const std::string pat = key + "=";
  std::size_t at = 0;
  for (;;) {
    at = line.find(pat, at);
    if (at == std::string::npos) return {};
    // Must start the line or follow a space (so "util=" never matches
    // "inject_wait_ns=" mid-token).
    if (at == 0 || line[at - 1] == ' ') break;
    at += pat.size();
  }
  const std::size_t v0 = at + pat.size();
  const std::size_t v1 = line.find(' ', v0);
  return line.substr(v0, v1 == std::string::npos ? v1 : v1 - v0);
}

// Report fields are machine-written, so a malformed one silently reads as
// 0 (a summary line is not worth aborting over); a trailing '%' is part of
// the report's own rendering and is tolerated.
[[nodiscard]] std::uint64_t to_u64(const std::string& s) {
  std::string_view v = s;
  if (!v.empty() && v.back() == '%') v.remove_suffix(1);
  std::uint64_t out = 0;
  return ksr::util::parse_u64(v, &out) ? out : 0;
}

// "12.3456%" -> 123456 ppm (the report renders ppm with 4 fixed decimals).
[[nodiscard]] std::uint64_t pct_to_ppm(const std::string& s) {
  std::string digits;
  for (char c : s) {
    if (c >= '0' && c <= '9') digits.push_back(c);
  }
  return to_u64(digits);
}

std::vector<JobBlock> parse_report(std::istream& is) {
  std::vector<JobBlock> jobs;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("=== job ", 0) == 0) {
      const std::size_t tail = line.rfind(" ===");
      jobs.push_back({line.substr(8, tail == std::string::npos
                                         ? tail
                                         : tail - 8),
                      {}});
      continue;
    }
    if (jobs.empty()) jobs.push_back({"", {}});  // headerless single report
    jobs.back().lines.push_back(line);
  }
  return jobs;
}

void summarize(const JobBlock& j) {
  std::string topo, quanta_line, hottest, traffic;
  std::uint64_t peak_l0 = 0;
  std::uint64_t peak_l1 = 0;
  for (const std::string& l : j.lines) {
    if (l.rfind("leaves=", 0) == 0) topo = l;
    if (l.rfind("quanta=", 0) == 0) quanta_line = l;
    if (l.rfind("hottest_shard ", 0) == 0) hottest = l;
    if (l.rfind("total=", 0) == 0) traffic = l;
    if (l.rfind("peak_util level=0 ", 0) == 0) {
      peak_l0 = pct_to_ppm(l.substr(l.rfind(' ') + 1));
    }
    if (l.rfind("peak_util level=1 ", 0) == 0) {
      peak_l1 = pct_to_ppm(l.substr(l.rfind(' ') + 1));
    }
  }
  std::cout << "job " << (j.label.empty() ? "(unnamed)" : j.label)
            << ": leaves=" << token_value(topo, "leaves")
            << " domains=" << token_value(topo, "domains")
            << " peak_util_ppm_l0=" << peak_l0
            << " peak_util_ppm_l1=" << peak_l1;
  if (!quanta_line.empty()) {
    std::cout << " quanta=" << token_value(quanta_line, "quanta")
              << " boundary_packets="
              << token_value(quanta_line, "boundary_packets");
  }
  if (!hottest.empty()) {
    std::cout << " hot_shard=" << token_value(hottest, "leaf")
              << " hot_shard_requests=" << token_value(hottest, "requests");
  }
  if (!traffic.empty()) {
    std::cout << " cross_leaf=" << token_value(traffic, "cross_leaf")
              << " cross_ratio=" << token_value(traffic, "cross_ratio");
  }
  std::cout << "\n";
}

void rank_job(const JobBlock& j, std::size_t top_n) {
  for (const std::string& l : j.lines) std::cout << l << "\n";

  // Rings by utilization (the report lists them in topology order).
  std::vector<std::pair<std::uint64_t, std::string>> rings;
  std::vector<std::pair<std::uint64_t, std::string>> shards;
  for (const std::string& l : j.lines) {
    if (l.rfind("shard ", 0) == 0) {
      shards.emplace_back(to_u64(token_value(l, "requests")), l);
    } else if (l.rfind("peak_util", 0) != 0 && !token_value(l, "util").empty()) {
      rings.emplace_back(pct_to_ppm(token_value(l, "util")), l);
    }
  }
  auto by_key_desc = [](const std::pair<std::uint64_t, std::string>& a,
                        const std::pair<std::uint64_t, std::string>& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::stable_sort(rings.begin(), rings.end(), by_key_desc);
  std::stable_sort(shards.begin(), shards.end(), by_key_desc);
  if (!rings.empty()) {
    std::cout << "\n## top rings by utilization\n";
    for (std::size_t i = 0; i < std::min(top_n, rings.size()); ++i) {
      std::cout << rings[i].second << "\n";
    }
  }
  if (!shards.empty()) {
    std::cout << "\n## top shards by requests\n";
    for (std::size_t i = 0; i < std::min(top_n, shards.size()); ++i) {
      std::cout << shards[i].second << "\n";
    }
  }
}

int rank_matrix(const std::string& path, const std::string& job,
                std::size_t top_n) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "ksrtop: cannot open matrix CSV '%s'\n",
                 path.c_str());
    return 1;
  }
  std::string line;
  if (!std::getline(is, line)) return 0;
  const bool has_job = line.rfind("job,", 0) == 0;
  struct Pair {
    std::string job;
    std::uint64_t src = 0, dst = 0, packets = 0;
  };
  std::vector<Pair> pairs;
  while (std::getline(is, line)) {
    std::stringstream ss(line);
    Pair p;
    std::string f;
    if (has_job && !std::getline(ss, p.job, ',')) continue;
    if (!std::getline(ss, f, ',')) continue;
    p.src = to_u64(f);
    if (!std::getline(ss, f, ',')) continue;
    p.dst = to_u64(f);
    if (!std::getline(ss, f, ',')) continue;
    p.packets = to_u64(f);
    if (!job.empty() && p.job != job) continue;
    if (p.src == p.dst) continue;  // cross-leaf pressure is the question
    pairs.push_back(std::move(p));
  }
  std::stable_sort(pairs.begin(), pairs.end(), [](const Pair& a,
                                                  const Pair& b) {
    return a.packets != b.packets ? a.packets > b.packets
                                  : (a.src != b.src ? a.src < b.src
                                                    : a.dst < b.dst);
  });
  std::cout << "## top cross-leaf pairs by packets\n";
  for (std::size_t i = 0; i < std::min(top_n, pairs.size()); ++i) {
    const Pair& p = pairs[i];
    if (!p.job.empty()) std::cout << "job " << p.job << " ";
    std::cout << "pair " << p.src << "->" << p.dst
              << " packets=" << p.packets << "\n";
  }
  return 0;
}

int usage(const std::vector<ksr::util::Flag>& rows) {
  std::fprintf(stderr,
               "usage: ksrtop REPORT [flags]\n"
               "\n"
               "REPORT is a --topo-report file (ksrsim / bench binaries).\n"
               "Default: one summary line per job.\n"
               "\n%s",
               ksr::util::flag_help(rows).c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path, job, matrix;
  std::size_t top_n = 10;
  const std::vector<ksr::util::Flag> rows = {
      {"job", &job,
       "LABEL  print that job's full report plus ring/shard rankings"},
      {"top", &top_n, "N  rows per ranking (default 10)", 1},
      {"matrix", &matrix,
       "FILE.matrix.csv  rank the traffic heatmap's cross-leaf pairs"},
  };
  if (!ksr::util::parse_flags(argc, argv, 1, rows, &report_path) ||
      (report_path.empty() && matrix.empty())) {
    return usage(rows);
  }

  if (!report_path.empty()) {
    std::ifstream is(report_path);
    if (!is) {
      std::fprintf(stderr, "ksrtop: cannot open report '%s'\n",
                   report_path.c_str());
      return 1;
    }
    const std::vector<JobBlock> jobs = parse_report(is);
    bool matched = false;
    for (const JobBlock& j : jobs) {
      if (job.empty()) {
        summarize(j);
        matched = true;
      } else if (j.label == job) {
        rank_job(j, top_n);
        matched = true;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "ksrtop: no job labelled '%s' in '%s'\n",
                   job.c_str(), report_path.c_str());
      return 1;
    }
  }
  if (!matrix.empty()) {
    const int rc = rank_matrix(matrix, job, top_n);
    if (rc != 0) return rc;
  }
  return 0;
}
