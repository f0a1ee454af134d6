// ksrprof — offline trace analysis and simulated-time profiling.
//
// Consumes a session trace CSV — the one trace-file format, written by
// --trace-out FILE.csv and by ksrfuzz's FAIL traces: a leading `job`
// column, `# region job=` and `# job=` footers — and prints, per job, the
// same profile report the in-process --report flag produces: per-subpage
// sharing-pattern classification (read-only, migratory, producer-consumer,
// falsely-shared, lock) ranked by contention, barrier arrival skew with
// last-arriver attribution, lock hold-vs-wait decomposition, and per-cpu
// stall attribution.
//
//   ksrprof trace.csv                       # report to stdout
//   ksrprof trace.csv --top 20              # longer ranking tables
//   ksrprof trace.csv --out report.txt      # report to a file
//   ksrprof trace.csv --flame stacks.txt    # collapsed stacks for
//                                           # speedscope / inferno
//
// Region names come from the `# region ...` footers. All output is
// integer-math only: byte-identical across hosts for the same trace.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ksr/obs/analyze.hpp"
#include "ksr/obs/tracer.hpp"
#include "ksr/util/flags.hpp"

namespace {

using namespace ksr;  // NOLINT

struct JobTrace {
  std::string label;
  std::vector<obs::Tracer::Record> records;
  std::vector<obs::RegionSpan> regions;
  std::uint64_t dropped = 0;
};

[[nodiscard]] std::vector<std::string> split(const std::string& line,
                                             char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t c = line.find(sep, pos);
    if (c == std::string::npos) {
      out.push_back(line.substr(pos));
      return out;
    }
    out.push_back(line.substr(pos, c - pos));
    pos = c + 1;
  }
}

/// Warn-and-fallback parse via the shared strict parser (ksr/util/parse.hpp):
/// malformed, partial, or overflowing numeric fields warn on stderr and
/// parse as `def` instead of silently truncating at the first bad byte.
[[nodiscard]] std::uint64_t to_u64(const std::string& s,
                                   std::uint64_t def = 0) {
  return ksr::util::to_u64_or(s, def, "ksrprof", "numeric field");
}
[[nodiscard]] std::int64_t to_i64(const std::string& s,
                                  std::int64_t def = 0) {
  return ksr::util::to_i64_or(s, def, "ksrprof", "numeric field");
}

/// "key=value" lookup inside a comment footer. The value runs to the next
/// " key=" marker (footer keys are fixed; values like job labels may
/// contain spaces), or to the end of the line for the last field (region
/// names).
[[nodiscard]] std::string footer_value(const std::string& line,
                                       const std::string& key,
                                       const std::string& next_key = {}) {
  const std::string pat = key + "=";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return {};
  const std::size_t v0 = at + pat.size();
  const std::size_t v1 =
      next_key.empty() ? std::string::npos
                       : line.find(" " + next_key + "=", v0);
  return line.substr(v0, v1 == std::string::npos ? v1 : v1 - v0);
}

JobTrace& job_named(std::vector<JobTrace>& jobs, const std::string& label) {
  for (JobTrace& j : jobs) {
    if (j.label == label) return j;
  }
  jobs.push_back({label, {}, {}, 0});
  return jobs.back();
}

/// Parse a session trace CSV into its jobs, in first-appearance order.
bool parse_csv(std::istream& is, std::vector<JobTrace>& out,
               std::string& err) {
  // A scratch tracer resolves category/event names back to the builtin ids
  // analyze() matches on (unknown names intern past the builtins and are
  // simply ignored by the analyzer).
  obs::Tracer names(1);
  std::string line;
  if (!std::getline(is, line)) {
    err = "empty input";
    return false;
  }
  if (line.rfind("job,time_ns,", 0) != 0) {
    err = "unrecognized header '" + line + "' (expected a session trace CSV)";
    return false;
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# region ", 0) == 0) {
        // "# region job=LABEL base=B bytes=S name=NAME"
        JobTrace& j = job_named(out, footer_value(line, "job", "base"));
        j.regions.push_back({to_u64(footer_value(line, "base", "bytes")),
                             to_u64(footer_value(line, "bytes", "name")),
                             footer_value(line, "name")});
      } else {
        // "# job=LABEL events=N dropped=M"
        const std::string dropped = footer_value(line, "dropped");
        if (!dropped.empty()) {
          JobTrace& j = job_named(out, footer_value(line, "job", "events"));
          j.dropped += to_u64(dropped);
        }
      }
      continue;
    }
    const std::vector<std::string> f = split(line, ',');
    if (f.size() != 8) {
      err = "malformed row '" + line + "'";
      return false;
    }
    JobTrace& j = job_named(out, f[0]);
    obs::Tracer::Record r;
    r.t = to_u64(f[1]);
    r.cat = names.intern_category(f[2]);
    r.ev = names.intern_event(f[3]);
    r.subject = to_u64(f[4]);
    r.actor = to_u64(f[5]);
    r.detail = to_i64(f[6]);
    r.aux = static_cast<std::uint32_t>(to_u64(f[7]));
    j.records.push_back(r);
  }
  if (out.empty()) {
    err = "no records";
    return false;
  }
  return true;
}

int usage(const std::vector<ksr::util::Flag>& rows) {
  std::fprintf(
      stderr,
      "usage: ksrprof TRACE.csv [flags]\n"
      "\n"
      "TRACE.csv is a session trace CSV (a bench's or ksrsim's\n"
      "--trace-out FILE.csv, or a ksrfuzz FAIL trace). Writes a simulated-\n"
      "time profile per job: sharing-pattern classification per sub-page,\n"
      "barrier/lock critical paths, stall attribution.\n"
      "\n%s",
      ksr::util::flag_help(rows).c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string out_path;
  std::string flame_path;
  obs::ReportOptions ropt;
  const std::vector<ksr::util::Flag> rows = {
      {"top", &ropt.top_n, "N  rows per ranking table (default 10)"},
      {"out", &out_path, "FILE  write the report to FILE (default stdout)"},
      {"flame", &flame_path, "FILE  collapsed stacks for speedscope/inferno"},
  };
  if (!ksr::util::parse_flags(argc, argv, 1, rows, &input) || input.empty()) {
    return usage(rows);
  }

  std::ifstream is(input);
  if (!is) {
    std::fprintf(stderr, "ksrprof: cannot open '%s'\n", input.c_str());
    return 1;
  }
  std::vector<JobTrace> jobs;
  std::string err;
  if (!parse_csv(is, jobs, err)) {
    std::fprintf(stderr, "ksrprof: %s: %s\n", input.c_str(), err.c_str());
    return 1;
  }

  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::out | std::ios::trunc);
    if (!out_file) {
      std::fprintf(stderr, "ksrprof: cannot open '%s'\n", out_path.c_str());
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  std::ofstream flame;
  if (!flame_path.empty()) {
    flame.open(flame_path, std::ios::out | std::ios::trunc);
    if (!flame) {
      std::fprintf(stderr, "ksrprof: cannot open '%s'\n", flame_path.c_str());
      return 1;
    }
  }

  for (const JobTrace& j : jobs) {
    const obs::Analysis a =
        obs::analyze(j.records.data(), j.records.data() + j.records.size(),
                     j.regions, j.dropped);
    out << "=== job " << j.label << " ===\n";
    obs::write_report(out, a, ropt);
    out << '\n';
    if (flame.is_open()) {
      // Prefix each stack with the job label so merged sweeps stay
      // separable in the flamegraph.
      std::ostringstream ss;
      obs::write_collapsed_stacks(ss, a);
      std::string stack_line;
      std::istringstream lines(ss.str());
      while (std::getline(lines, stack_line)) {
        flame << j.label << ';' << stack_line << '\n';
      }
    }
  }
  // ofstreams swallow short writes (full disk) until the final flush; a
  // truncated report must not exit 0.
  int rc = 0;
  if (!out_path.empty()) {
    out_file.close();
    if (!out_file) {
      std::fprintf(stderr, "ksrprof: ERROR: short write to '%s'\n",
                   out_path.c_str());
      rc = 1;
    }
  }
  if (!flame_path.empty()) {
    flame.close();
    if (!flame) {
      std::fprintf(stderr, "ksrprof: ERROR: short write to '%s'\n",
                   flame_path.c_str());
      rc = 1;
    }
  }
  return rc;
}
