// ksrbench driver: repeats one workload's pass for --seconds, checks every
// output, and prints the metrics as one JSON object on the last stdout line.
//
//   ksrbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes and reports the per-layer metrics, including each
// layer's self time and the tracing overhead; the spans of the last traced
// pass go to .bench_out/spans-<workload>-seed<N>.jsonl.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ksr/util/parse.hpp"

namespace ksrbench {

// ---------------------------------------------------------------- spans

int Spans::open(const char* name, std::uint64_t id) {
  if (!on_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (id == 0 && parent >= 0) id = spans_[static_cast<std::size_t>(parent)].id;
  spans_.push_back(Span{name, id, parent, Clock::now(), {}});
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Spans::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  stack_.pop_back();
}

namespace {

double span_seconds(const Spans::Span& s) {
  return std::chrono::duration<double>(s.end - s.start).count();
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

double Spans::root_seconds(const char* root) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && std::strcmp(s.name, root) == 0) {
      total += span_seconds(s);
    }
  }
  return total;
}

std::map<std::string, double> Spans::self_seconds(const char* root) const {
  // Spans are stored in open order, so a parent precedes its children.
  std::vector<bool> inside(spans_.size(), false);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto parent = static_cast<std::size_t>(s.parent);
    inside[i] = s.parent < 0 ? std::strcmp(s.name, root) == 0 : inside[parent];
    self[i] += span_seconds(s);
    if (s.parent >= 0) self[parent] -= span_seconds(s);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (inside[i]) out[layer_of(spans_[i].name)] += self[i];
  }
  return out;
}

void Spans::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (spans_.empty()) return;
  const Clock::time_point t0 = spans_.front().start;
  auto us = [t0](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"id\":%" PRIu64
                  ",\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name, s.id, s.parent, us(s.start), us(s.end));
    os << buf;
  }
}

// ---------------------------------------------------------------- driver

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A workload that does not
// exercise a layer reports 0 for it.
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_domain0", "count"},
    {"sim.fibers", "count"},
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.quanta", "count"},
    {"sim.boundary_packets", "count"},
    {"sim.barrier_wait_s", "s"},
    {"sim.barrier_wait_ppm", "ppm"},
    {"sim.domain_busy_s", "s"},
    {"sim.critical_domain_share", "ratio"},
    {"sim.threaded_run_s", "s"},
    {"cache.subcache_hits", "count"},
    {"cache.subcache_misses", "count"},
    {"cache.subcache_miss_ratio", "ratio"},
    {"cache.localcache_misses", "count"},
    {"cache.page_allocs", "count"},
    {"cache.pages_evicted", "count"},
    {"net.ring_requests", "count"},
    {"net.ring_retries", "count"},
    {"net.slot_grab_ratio", "ratio"},
    {"net.inject_wait_sim_ns", "ns"},
    {"net.ring_util_ppm_l0", "ppm"},
    {"net.ring_util_ppm_l1", "ppm"},
    {"machine.nacks", "count"},
    {"machine.atomic_retries", "count"},
    {"machine.invalidations", "count"},
    {"machine.snarfs", "count"},
    {"machine.shard_requests", "count"},
    {"machine.hot_shard_share", "ratio"},
    {"sync.episodes", "count"},
    {"sync.host_us_per_episode", "us"},
    {"nas.sims", "count"},
    {"nas.sim_s", "s"},
    {"nas.setup_s", "s"},
    {"ckpt.capture_s", "s"},
    {"ckpt.image_bytes", "bytes"},
    {"serve.hits", "count"},
    {"serve.misses", "count"},
    {"serve.stores", "count"},
    {"serve.load_errors", "count"},
    {"serve.failures", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.key_us_plain", "us"},
    {"serve.key_us_preset", "us"},
    {"serve.lookup_us", "us"},
    {"serve.execute_ms", "ms"},
    {"serve.store_us", "us"},
    {"serve.socket_us", "us"},
    {"self.bench_s", "s"},
    {"self.sim_s", "s"},
    {"self.machine_s", "s"},
    {"self.nas_s", "s"},
    {"self.sync_s", "s"},
    {"self.ckpt_s", "s"},
    {"self.serve_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User + system CPU time of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ksrbench: " << why
            << "\nusage: ksrbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    std::uint64_t u = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed" && ksr::util::parse_u64(v, &u)) {
      a.seed = u;
    } else if (k == "--seconds" && ksr::util::parse_u64(v, &u)) {
      a.seconds = static_cast<double>(u);
    } else if (k == "--trace" && (v == "0" || v == "1")) {
      a.trace = v == "1";
    } else {
      usage("bad argument " + k + " " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Compare a pass's simulated counts against the first pass's: simulated
/// statistics must repeat exactly.
void check_repeats(const std::map<std::string, double>& want,
                   const std::map<std::string, double>& got,
                   const char* what, std::vector<std::string>* failures) {
  for (const auto& [k, v] : got) {
    const auto it = want.find(k);
    if (it != want.end() && it->second != v) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s: %s %.17g != %.17g", what,
                    k.c_str(), v, it->second);
      failures->push_back(buf);
    }
  }
}

void print_metric(std::string* out, const char* name, double value,
                  const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                name, value, unit);
  if (out->back() != '{') *out += ',';
  *out += buf;
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& x : workloads()) {
    if (a.workload == x.name) w = &x;
  }
  if (w == nullptr) usage("unknown workload '" + a.workload + "'");
  std::filesystem::create_directories(kOutDir);

  std::vector<Pass> plain;   // untraced passes
  std::vector<Pass> traced;  // traced passes (--trace 1)
  std::vector<std::map<std::string, double>> selfs;
  std::vector<std::string> failures;
  std::map<std::string, double> first_sim;  // the warm-up pass's counts
  std::uint64_t attempted = 0;
  Spans last_spans(false);  // the last traced pass, written out at the end

  // Start another pass only while it is expected to end within --seconds
  // (and within a hard cap on a slow host), once every kind of pass ran.
  constexpr double kHardCapS = 150.0;
  const auto start = Clock::now();
  double longest = 0.0;
  for (unsigned n = 0;; ++n) {
    const double end = seconds_since(start) + longest;
    const bool have_all = !plain.empty() && (!a.trace || !traced.empty());
    if (have_all && (end > a.seconds || end > kHardCapS)) break;
    // Warm-up: the first tenth of the run (at least one pass) settles the
    // allocator and the page cache; it is checked, not timed.
    const bool warm_up = n == 0 || seconds_since(start) < 0.1 * a.seconds;
    const bool trace_this =
        a.trace && !warm_up && plain.size() > traced.size();
    Spans spans(trace_this);
    const auto t = Clock::now();
    const double cpu0 = cpu_seconds();
    Pass p = w->run(a.seed, spans);
    p.cpu_s = cpu_seconds() - cpu0;
    longest = std::max(longest, seconds_since(t));
    std::printf("pass %u%s: wall %.4f s, cpu %.4f s, setup %.6f s, %zu "
                "failed\n",
                n, trace_this ? " (traced)" : warm_up ? " (warm-up)" : "",
                p.wall_s, p.cpu_s, p.setup_s, p.failures.size());
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
    attempted += p.attempted;
    // Simulated counts repeat exactly: every pass against the first (the
    // keys an untraced pass has), traced passes against each other (all).
    if (n == 0) first_sim = p.sim;
    check_repeats(first_sim, p.sim, "repeat", &failures);
    if (warm_up) continue;
    if (trace_this) {
      if (!traced.empty()) {
        check_repeats(traced.front().sim, p.sim, "traced repeat", &failures);
      }
      const auto self = spans.self_seconds("bench.pass");
      double sum = 0.0;
      for (const auto& [layer, s] : self) sum += s;
      const double root = spans.root_seconds("bench.pass");
      if (root > 0 && std::abs(sum - root) > 0.05 * root) {
        failures.push_back("layer self times do not sum to the traced wall");
      }
      selfs.push_back(self);
      last_spans = std::move(spans);
      traced.push_back(std::move(p));
    } else {
      plain.push_back(std::move(p));
    }
  }

  // ---- end-to-end figures (untraced passes)
  std::vector<double> wall, setup, ops;
  std::map<std::string, std::vector<double>> lat;
  for (const Pass& p : plain) {
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    ops.insert(ops.end(), p.op_s.begin(), p.op_s.end());
    for (const auto& [cls, v] : p.latency_s) {
      lat[cls].insert(lat[cls].end(), v.begin(), v.end());
    }
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  const std::uint64_t failed =
      std::min<std::uint64_t>(failures.size(), attempted);
  for (const std::string& f : failures) std::cerr << "FAILED: " << f << "\n";

  // The gated end-to-end metrics, then the rest of the issue's list (the
  // detail line, which ksrbench/run.py --all prints).
  std::string e2e = "{";
  const double wall_med = median(wall);
  print_metric(&e2e, "wall_s", wall_med, "s");
  print_metric(&e2e, "setup_s", median(setup), "s");
  print_metric(&e2e, "peak_rss_mb", peak_rss_mb(), "MiB");
  std::string detail = e2e;
  print_metric(&detail, "fail_ratio",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio");
  print_metric(&detail, "op_p50_us", 1e6 * median(ops), "us");
  if (!lat.empty()) {
    print_metric(&detail, "hit_p50_us", 1e6 * quantile(lat["hit"], 0.5),
                 "us");
    print_metric(&detail, "hit_p99_us", 1e6 * quantile(lat["hit"], 0.99),
                 "us");
    print_metric(&detail, "preset_hit_p50_us",
                 1e6 * quantile(lat["preset_hit"], 0.5), "us");
    print_metric(&detail, "preset_hit_p90_us",
                 1e6 * quantile(lat["preset_hit"], 0.9), "us");
    print_metric(&detail, "miss_p50_ms", 1e3 * quantile(lat["miss"], 0.5),
                 "ms");
    print_metric(&detail, "miss_p90_ms", 1e3 * quantile(lat["miss"], 0.9),
                 "ms");
    print_metric(&detail, "replay_p50_us", 1e6 * quantile(lat["replay"], 0.5),
                 "us");
    print_metric(&detail, "replay_p90_us", 1e6 * quantile(lat["replay"], 0.9),
                 "us");
  }
  print_metric(&detail, "passes", static_cast<double>(plain.size()), "count");
  detail += "}";
  std::cout << "workload " << a.workload << " seed " << a.seed << ": "
            << plain.size() << " untraced + " << traced.size()
            << " traced passes, " << attempted << " operations, " << failed
            << " failed\n";
  if (last_spans.on()) {
    const std::string path = std::string(kOutDir) + "/spans-" + a.workload +
                             "-seed" + std::to_string(a.seed) + ".jsonl";
    last_spans.write_jsonl(path);
    std::cout << "spans: " << path << "\n";
  }
  std::cout << "{\"detail\":" << detail << "}\n";

  std::string metrics = "{";
  if (!a.trace) {
    metrics = e2e;
  } else {
    std::vector<double> traced_wall;
    std::map<std::string, std::vector<double>> host, self;
    for (const Pass& p : traced) {
      traced_wall.push_back(p.wall_s);
      for (const auto& [k, v] : p.host) host[k].push_back(v);
    }
    for (const auto& s : selfs) {
      for (const auto& [layer, v] : s) {
        self["self." + layer + "_s"].push_back(v);
      }
    }
    const std::map<std::string, double>& sim = traced.front().sim;
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      double v = 0.0;
      if (const auto it = sim.find(name); it != sim.end()) {
        v = it->second;
      } else if (const auto h = host.find(name); h != host.end()) {
        v = median(h->second);
      } else if (const auto s = self.find(name); s != self.end()) {
        v = median(s->second);
      } else if (name == "trace.wall_s") {
        v = median(traced_wall);
      } else if (name == "trace.overhead_s") {
        v = median(traced_wall) - wall_med;
      } else if (name == "trace.spans") {
        v = static_cast<double>(last_spans.spans().size());
      }
      print_metric(&metrics, m.name, v, m.unit);
    }
  }
  metrics += "}";
  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ksrbench

int main(int argc, char** argv) {
  try {
    return ksrbench::run(ksrbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ksrbench: " << e.what() << "\n";
    return 1;
  }
}
