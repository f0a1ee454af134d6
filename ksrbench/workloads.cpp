// The four benchmark workloads (ksrbench/README.md explains why each one).
//
// Each workload is one pass: the benchmark repeats passes for --seconds and
// reports medians. A pass builds every machine it uses from scratch, so
// every simulation starts with empty modelled caches, as the paper benches
// do.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/serve/cache.hpp"
#include "ksr/serve/server.hpp"
#include "ksr/sim/rng.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksrbench {
namespace {

namespace fs = std::filesystem;
using ksr::machine::KsrMachine;
using ksr::machine::MachineConfig;

/// Input seed for stream `stream` of a workload: `paper` at the default
/// seed, otherwise an odd 46-bit value mixed from (seed, stream) — odd and
/// below 2^46 so it is also a valid NAS linear-congruential seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t paper) {
  if (seed == kDefaultSeed) return paper;
  const std::uint64_t h = ksr::sim::mix64(ksr::sim::mix64(seed) ^
                                          (stream * 0x9E3779B97F4A7C15ULL));
  return (h & ((1ULL << 46) - 1)) | 1;
}

// derive_seed() streams: which input of a workload a seed is for.
constexpr std::uint64_t kIsKeys = 1;
constexpr std::uint64_t kServeOrder = 7;
constexpr std::uint64_t kServePreset = 99;
constexpr std::uint64_t kServeSpecs = 100;  // + spec index

// Pinned mode-A fingerprints (events over all domains) at the default seed.
constexpr std::uint64_t kTable2Events = 16'218'825;
constexpr std::uint64_t kFig4Events = 8'844'467;
constexpr int kEpisodes = 20;  // fig4 episodes per simulation (bench --full)

/// Fold one finished machine's counters into `c` (simulated data) and `h`
/// (host-side parallel profile).
void collect(KsrMachine& m, std::map<std::string, double>& c,
             std::map<std::string, double>& h) {
  const auto& pe = m.parallel_engine();
  c["sim.events_domain0"] +=
      static_cast<double>(m.engine().events_dispatched());
  for (unsigned d = 0; d < m.domains(); ++d) {
    c["sim.fibers"] += static_cast<double>(m.engine_of(d).fibers_spawned());
  }
  c["sim.quanta"] += static_cast<double>(pe.quanta());
  c["sim.boundary_packets"] += static_cast<double>(pe.boundary_packets());

  ksr::cache::PerfMonitor t;
  for (unsigned i = 0; i < m.nproc(); ++i) t.add(m.cell_pmon(i));
  c["cache.subcache_hits"] += static_cast<double>(t.subcache_hits);
  c["cache.subcache_misses"] += static_cast<double>(t.subcache_misses);
  c["cache.localcache_misses"] += static_cast<double>(t.localcache_misses);
  c["cache.page_allocs"] += static_cast<double>(t.page_allocs);
  c["cache.pages_evicted"] += static_cast<double>(t.pages_evicted);
  c["net.ring_requests"] += static_cast<double>(t.ring_requests);
  c["net.inject_wait_sim_ns"] += static_cast<double>(t.inject_wait_ns);
  c["machine.nacks"] += static_cast<double>(t.ring_nacks);
  c["machine.atomic_retries"] += static_cast<double>(t.atomic_retries);
  c["machine.invalidations"] += static_cast<double>(t.invalidations_received);
  c["machine.snarfs"] += static_cast<double>(t.snarfs);

  const ksr::machine::NetSnapshot ns = m.net_snapshot();
  c["net.ring_retries"] += static_cast<double>(ns.retries);
  c["net.packets"] += static_cast<double>(ns.packets);

  ksr::obs::topo::Snapshot s;
  m.topo_snapshot(s);
  for (const auto& r : s.rings) {
    const std::string l = r.level == 0 ? "l0" : "l1";
    c["net.busy_slot_ns_" + l] += static_cast<double>(r.busy_slot_ns);
    c["net.slot_ns_" + l] +=
        static_cast<double>(r.slots) * static_cast<double>(r.elapsed_ns);
  }
  std::uint64_t hottest = 0;
  for (const auto& sh : s.shards) {
    c["machine.shard_requests"] += static_cast<double>(sh.requests);
    hottest = std::max(hottest, sh.requests);
  }
  c["machine.hot_shard_requests"] += static_cast<double>(hottest);

  const auto prof = pe.host_profile();
  h["sim.barrier_wait_s"] += static_cast<double>(prof.barrier_wait_ns) * 1e-9;
  h["sim.phase_wall_s"] += static_cast<double>(prof.phase_wall_ns) * 1e-9;
  h["sim.pool_threads"] = prof.threads;
  for (const std::uint64_t ns_d : prof.domain_wall_ns) {
    h["sim.domain_busy_s"] += static_cast<double>(ns_d) * 1e-9;
  }
  if (prof.quanta != 0) {
    h["sim.critical_quanta"] +=
        static_cast<double>(prof.critical_quanta[prof.critical_domain()]);
  }
}

/// Turn the pass sums collect() left into the reported ratios.
void finish_ratios(Pass& p) {
  auto& c = p.sim;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  c["cache.subcache_miss_ratio"] =
      ratio(c["cache.subcache_misses"],
            c["cache.subcache_hits"] + c["cache.subcache_misses"]);
  c["net.slot_grab_ratio"] =
      ratio(c["net.packets"], c["net.packets"] + c["net.ring_retries"]);
  c["net.ring_util_ppm_l0"] =
      1e6 * ratio(c["net.busy_slot_ns_l0"], c["net.slot_ns_l0"]);
  c["net.ring_util_ppm_l1"] =
      1e6 * ratio(c["net.busy_slot_ns_l1"], c["net.slot_ns_l1"]);
  c["machine.hot_shard_share"] =
      ratio(c["machine.hot_shard_requests"], c["machine.shard_requests"]);
  for (const char* k : {"net.packets", "net.busy_slot_ns_l0", "net.slot_ns_l0",
                        "net.busy_slot_ns_l1", "net.slot_ns_l1",
                        "machine.hot_shard_requests"}) {
    c.erase(k);
  }
  auto& h = p.host;
  if (p.sim["sim.events"] > 0 && h.count("sim.run_s") != 0) {
    h["sim.ns_per_event"] = 1e9 * h["sim.run_s"] / p.sim["sim.events"];
  }
  h["sim.barrier_wait_ppm"] =
      1e6 * ratio(h["sim.barrier_wait_s"],
                  h["sim.pool_threads"] * h["sim.phase_wall_s"]);
  h["sim.critical_domain_share"] =
      ratio(h["sim.critical_quanta"], p.sim["sim.quanta"]);
  for (const char* k : {"sim.phase_wall_s", "sim.pool_threads",
                        "sim.critical_quanta"}) {
    h.erase(k);
  }
}

/// What one simulation reports back to simulate().
struct SimOutcome {
  double sim_seconds = 0.0;  // simulated seconds (an identity, not a speed)
  std::string failure;       // empty when every check passed
};

/// One simulation as an operation: construct the machine and allocate
/// (setup), run, read its counters (traced passes only), destroy it.
/// `prepare(m)` does the allocation the run needs; `run(m)` simulates.
template <class Prepare, class Run>
void simulate(Pass& p, Spans& sp, std::uint64_t id, const MachineConfig& cfg,
              const std::string& label, Prepare&& prepare, Run&& run) {
  Scope sim_span(sp, "bench.sim", id);
  const auto t0 = Clock::now();
  std::unique_ptr<KsrMachine> m;
  {
    Scope s(sp, "machine.construct");
    m = std::make_unique<KsrMachine>(cfg);
  }
  prepare(*m);
  const double setup = seconds_since(t0);
  const auto t1 = Clock::now();
  const SimOutcome out = run(*m);
  const double run_s = seconds_since(t1);

  ++p.attempted;
  if (!out.failure.empty()) p.failures.push_back(label + ": " + out.failure);
  // The fingerprint counts every domain; Machine::engine() is domain 0 only.
  p.sim["sim.events"] +=
      static_cast<double>(m->parallel_engine().events_dispatched());
  p.sim["nas.sims"] += 1;
  p.sim["nas.sim_s"] += out.sim_seconds;
  p.setup_s += setup;
  if (sp.on()) {
    Scope s(sp, "bench.collect");
    collect(*m, p.sim, p.host);
    p.host["sim.run_s"] += run_s;
    p.host["nas.setup_s"] += setup;
  }
  {
    Scope s(sp, "machine.destroy");
    m.reset();
  }
  p.op_s.push_back(seconds_since(t0));
}

void check_pinned(Pass& p, std::uint64_t seed, std::uint64_t pinned) {
  const auto events = static_cast<std::uint64_t>(p.sim["sim.events"]);
  if (seed == kDefaultSeed && events != pinned) {
    p.failures.push_back("events_dispatched " + std::to_string(events) +
                         " != pinned " + std::to_string(pinned));
  }
}

SimOutcome run_is_checked(ksr::machine::Machine& m,
                          const ksr::nas::IsConfig& cfg, Spans& sp) {
  ksr::nas::IsResult r;
  {
    Scope s(sp, "nas.run_is");
    r = ksr::nas::run_is(m, cfg);
  }
  SimOutcome out;
  out.sim_seconds = r.seconds;
  if (!r.ranks_valid) out.failure = "IS ranks are not a valid sort";
  return out;
}

// ---- table2_is: the 13 simulations of bench_table2_is --full, serially.

Pass table2_is(std::uint64_t seed, Spans& sp) {
  ksr::nas::IsConfig cfg;
  cfg.log2_keys = 17;
  cfg.log2_buckets = 11;
  cfg.seed = derive_seed(seed, kIsKeys, cfg.seed);
  // bench order: the P sweep, then the prefetch on/off pairs.
  std::vector<std::pair<unsigned, bool>> points;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 30u, 32u}) {
    points.emplace_back(p, true);
  }
  for (unsigned p : {8u, 16u, 32u}) {
    points.emplace_back(p, true);
    points.emplace_back(p, false);
  }

  Pass pass;
  Scope root(sp, "bench.pass");
  const auto t0 = Clock::now();
  std::uint64_t id = 0;
  for (const auto& [procs, prefetch] : points) {
    ksr::nas::IsConfig c = cfg;
    c.use_prefetch = prefetch;
    simulate(pass, sp, ++id, MachineConfig::ksr1(procs).scaled_by(64),
             "is p=" + std::to_string(procs) + (prefetch ? "" : " noprefetch"),
             [](KsrMachine&) {},
             [&](KsrMachine& m) { return run_is_checked(m, c, sp); });
  }
  pass.wall_s = seconds_since(t0);
  check_pinned(pass, seed, kTable2Events);
  if (sp.on()) finish_ratios(pass);
  return pass;
}

// ---- fig4_barriers: the 81 simulations of bench_fig4_barriers_ksr1 --full.

Pass fig4_barriers(std::uint64_t seed, Spans& sp) {
  (void)seed;  // the barrier episodes take no input data
  Pass pass;
  Scope root(sp, "bench.pass");
  const auto t0 = Clock::now();
  std::uint64_t id = 0;
  double run_s = 0.0;
  for (const ksr::sync::BarrierKind kind : ksr::sync::all_barrier_kinds()) {
    for (unsigned procs : {2u, 4u, 8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
      std::unique_ptr<ksr::sync::Barrier> barrier;
      simulate(
          pass, sp, ++id, MachineConfig::ksr1(procs),
          std::string(to_string(kind)) + " p=" + std::to_string(procs),
          [&](KsrMachine& m) {
            Scope s(sp, "sync.make_barrier");
            barrier = ksr::sync::make_barrier(m, kind);
          },
          [&](KsrMachine& m) {
            // The bench's episode loop (bench::barrier_episode_seconds),
            // plus a host-side count of the episodes each cpu completed:
            // no cpu may leave episode k before every cpu has left k - 1.
            std::vector<unsigned> done(procs, 0);
            bool overtaken = false;
            auto arrive = [&](ksr::machine::Cpu& cpu) {
              barrier->arrive(cpu);
              const unsigned k = ++done[cpu.id()];
              for (const unsigned d : done) overtaken |= d + 1 < k;
            };
            const auto t1 = Clock::now();
            ksr::machine::RunResult rr;
            {
              Scope s(sp, "sim.run");
              rr = m.run([&](ksr::machine::Cpu& cpu) {
                arrive(cpu);  // warm-up episode, as the bench does
                for (int e = 0; e < kEpisodes; ++e) {
                  cpu.work(cpu.rng().below(500));
                  arrive(cpu);
                }
              });
            }
            run_s += seconds_since(t1);
            SimOutcome out;
            out.sim_seconds = rr.seconds;
            const bool all_done =
                std::all_of(done.begin(), done.end(),
                            [](unsigned d) { return d == kEpisodes + 1; });
            if (overtaken || !all_done) {
              out.failure = "barrier let a cpu through early or lost episodes";
            }
            pass.sim["sync.episodes"] += kEpisodes + 1;
            barrier.reset();  // before its machine
            return out;
          });
    }
  }
  pass.wall_s = seconds_since(t0);
  if (sp.on()) {
    pass.host["sync.host_us_per_episode"] =
        1e6 * run_s / pass.sim["sync.episodes"];
  }
  check_pinned(pass, seed, kFig4Events);
  if (sp.on()) finish_ratios(pass);
  return pass;
}

// ---- is128_modeB: one 128-cell IS through the quantum loop (mode B).
//
// The timed run advances the four domains on one host thread: quantum loop,
// boundary channels and home-shard protocol, with wall time that does not
// hinge on four vCPUs being scheduled together (at four threads the pass
// time swung 2.3-8.9 s between runs on a shared 4-core host). Traced passes
// also run the same simulation at min(4, cores) threads for the
// quantum-barrier profile, and check that it matches the serial run count
// for count.

Pass is128_mode_b(std::uint64_t seed, Spans& sp) {
  ksr::nas::IsConfig cfg;
  cfg.log2_keys = 13;
  cfg.log2_buckets = 9;
  cfg.seed = derive_seed(seed, kIsKeys, cfg.seed);
  const MachineConfig machine =
      MachineConfig::ksr1(128).scaled_by(64).with_cells_per_domain(32);
  auto run = [&](KsrMachine& m) { return run_is_checked(m, cfg, sp); };
  Pass pass;
  {
    Scope root(sp, "bench.pass");
    const auto t0 = Clock::now();
    simulate(pass, sp, 1, machine.with_sim_threads(1), "is p=128 mode B",
             [](KsrMachine&) {}, run);
    pass.wall_s = seconds_since(t0);
  }
  if (!sp.on()) return pass;

  Scope root(sp, "bench.threaded");
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  Pass threaded;
  simulate(threaded, sp, 2, machine.with_sim_threads(threads),
           "is p=128 mode B threaded", [](KsrMachine&) {}, run);
  pass.attempted += threaded.attempted;
  pass.failures.insert(pass.failures.end(), threaded.failures.begin(),
                       threaded.failures.end());
  // nas.sim_s is left out: run_is takes its max over per-cell times in a
  // host variable that every domain's thread writes unsynchronized
  // (src/nas/is.cpp, reported by ThreadSanitizer), so at more than one
  // thread a lost update can lower it.
  std::map<std::string, double> serial = pass.sim;
  serial.erase("nas.sim_s");
  threaded.sim.erase("nas.sim_s");
  if (threaded.sim != serial) {
    pass.failures.push_back("mode B counts differ between 1 and " +
                            std::to_string(threads) + " sim threads");
  }
  // The quantum-barrier profile is the threaded run's.
  for (const char* k : {"sim.barrier_wait_s", "sim.phase_wall_s",
                        "sim.pool_threads", "sim.domain_busy_s",
                        "sim.critical_quanta"}) {
    pass.host[k] = threaded.host[k];
  }
  pass.host["sim.threaded_run_s"] = threaded.host["sim.run_s"];
  finish_ratios(pass);
  return pass;
}

// ---- serve_mix: a closed-loop client against an in-process SocketServer.

constexpr unsigned kDistinct = 100;      // plain specs: one miss each
constexpr unsigned kPlainRepeats = 1000; // memory hits on them
constexpr unsigned kPresetRepeats = 100; // hits on the checkpoint-preset spec

/// The plain spec set: a fixed grid of small EP/CG/IS shapes (so every seed
/// does about the same work) whose kernel seeds come from the workload seed.
std::vector<ksr::serve::JobSpec> plain_specs(std::uint64_t seed) {
  std::vector<ksr::serve::JobSpec> specs(kDistinct);
  for (unsigned i = 0; i < kDistinct; ++i) {
    ksr::serve::JobSpec& s = specs[i];
    s.procs = 2u << ((i / 3) % 3);  // 2, 4, 8
    const unsigned size = (i / 9) % 3;
    switch (i % 3) {
      case 0:
        s.workload = "ep";
        s.log2_pairs = 7 + size;
        break;
      case 1:
        s.workload = "cg";
        s.n = 48 + 24 * size;
        s.nnz_per_row = 8;
        s.iters = 2;
        break;
      default:
        s.workload = "is";
        s.scale = 64;
        s.log2_keys = 9 + size;
        s.log2_buckets = 6;
        break;
    }
    s.seed = derive_seed(seed, kServeSpecs + i, 1001 + 2 * i);
  }
  return specs;
}

/// The bytes of a response's result object (embedded verbatim, last).
std::string result_bytes(const std::string& line) {
  const std::size_t at = line.find(",\"result\":");
  if (at == std::string::npos || line.size() < at + 11) return {};
  return line.substr(at + 10, line.size() - at - 11);
}

/// Kernel-level validation of one executed result.
std::string check_result(const std::string& workload,
                         const std::string& bytes) {
  std::string err;
  const ksr::serve::Json r = ksr::serve::Json::parse(bytes, &err);
  if (!err.empty() || !r.is_object()) return "result is not a JSON object";
  auto num = [&r](const char* k) {
    const ksr::serve::Json* v = r.find(k);
    return v != nullptr ? v->as_double(-1.0) : -1.0;
  };
  if (workload == "is") {
    const ksr::serve::Json* v = r.find("ranks_valid");
    if (v == nullptr || !v->as_bool()) return "IS ranks_valid is not true";
  } else if (workload == "cg") {
    if (!(num("final_residual") < num("initial_residual"))) {
      return "CG residual did not decrease";
    }
  } else if (!(num("accepted") > 0)) {
    return "EP accepted no pairs";
  }
  return {};
}

/// A SocketServer running its accept loop on a thread for the lifetime of
/// the object; the destructor shuts it down and joins.
class LiveServer {
 public:
  LiveServer(const std::string& socket, const std::string& store)
      : server_(ksr::serve::SocketServer::Options{socket, {store, 1, 1}}),
        thread_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.shutdown();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] ksr::serve::ServeCore::Counters counters() {
    return server_.core().counters();
  }

 private:
  ksr::serve::SocketServer server_;
  std::thread thread_;
};

void add_counters(Pass& p, const ksr::serve::ServeCore::Counters& c) {
  p.sim["serve.hits"] += static_cast<double>(c.cache.hits);
  p.sim["serve.misses"] += static_cast<double>(c.cache.misses);
  p.sim["serve.stores"] += static_cast<double>(c.cache.stores);
  p.sim["serve.load_errors"] += static_cast<double>(c.cache.load_errors);
  p.sim["serve.failures"] += static_cast<double>(c.failures);
}

Pass serve_mix(std::uint64_t seed, Spans& sp) {
  // One malloc arena for every thread. Otherwise peak RSS depends on which
  // arena each short-lived connection thread draws, and it swung by a third
  // between runs. The client waits on the server, so the two never contend.
  mallopt(M_ARENA_MAX, 1);
  const std::string dir = kOutDir;
  const std::string store = dir + "/serve_store";
  const std::string replica_store = dir + "/replica_store";
  const std::string preset = dir + "/is64_warm.ckpt";
  const std::string socket = dir + "/serve.sock";
  Pass pass;

  // ---- setup: fresh store, the checkpoint preset, the server.
  const auto t_setup = Clock::now();
  std::unique_ptr<LiveServer> server;
  std::unique_ptr<ksr::serve::Client> client;
  ksr::serve::JobSpec preset_spec;
  {
    Scope setup(sp, "bench.setup");
    fs::remove_all(store);
    fs::remove_all(replica_store);
    fs::create_directories(dir);
    preset_spec.procs = 64;
    preset_spec.scale = 64;
    preset_spec.workload = "is";
    preset_spec.log2_keys = 11;
    preset_spec.log2_buckets = 7;
    preset_spec.seed = derive_seed(seed, kServePreset, 0);
    preset_spec.restore_from = preset;
    {
      // The same machine and kernel config serve::execute builds for the
      // preset spec, stopped at the warm-up boundary.
      std::unique_ptr<KsrMachine> m;
      {
        Scope s(sp, "machine.construct");
        m = std::make_unique<KsrMachine>(
            MachineConfig::ksr1(64).scaled_by(64).with_sim_threads(1));
      }
      ksr::nas::IsConfig c;
      c.log2_keys = 11;
      c.log2_buckets = 7;
      if (preset_spec.seed != 0) c.seed = preset_spec.seed;
      ksr::nas::IsSplit split(*m, c);
      {
        Scope s(sp, "nas.is_warmup");
        split.run_warmup();
      }
      const auto t_ckpt = Clock::now();
      {
        Scope s(sp, "ckpt.checkpoint_to");
        m->checkpoint_to(preset);
      }
      pass.sim["sim.events"] +=
          static_cast<double>(m->parallel_engine().events_dispatched());
      pass.sim["nas.sims"] += 1;
      if (sp.on()) {
        pass.host["ckpt.capture_s"] = seconds_since(t_ckpt);
        Scope s(sp, "bench.collect");
        collect(*m, pass.sim, pass.host);
      }
      pass.sim["ckpt.image_bytes"] =
          static_cast<double>(fs::file_size(preset));
      Scope s(sp, "machine.destroy");
      m.reset();
    }
    Scope s(sp, "serve.start");
    server = std::make_unique<LiveServer>(socket, store);
    client = std::make_unique<ksr::serve::Client>(socket);
  }
  pass.setup_s = seconds_since(t_setup);

  // ---- the seeded request stream (built outside the timed part).
  std::vector<ksr::serve::JobSpec> specs = plain_specs(seed);
  specs.push_back(preset_spec);
  const unsigned preset_index = kDistinct;
  std::vector<std::string> lines;
  for (const auto& s : specs) {
    lines.push_back("{\"op\":\"submit\",\"job\":" + s.to_json().dump() + "}");
  }
  ksr::sim::Rng rng(derive_seed(seed, kServeOrder, 7));
  std::vector<unsigned> stream;
  {
    unsigned seen = 0;
    const unsigned plain_total = kDistinct + kPlainRepeats;
    for (unsigned k = 0; k < plain_total; ++k) {
      const unsigned left_new = kDistinct - seen;
      if (seen == 0 || rng.below(plain_total - k) < left_new) {
        stream.push_back(seen++);
      } else {
        stream.push_back(static_cast<unsigned>(rng.below(seen)));
      }
    }
    for (unsigned k = 0; k <= kPresetRepeats; ++k) {
      const auto at =
          static_cast<std::ptrdiff_t>(rng.below(stream.size() + 1));
      stream.insert(stream.begin() + at, preset_index);
    }
  }

  // ---- measured part: the stream, a restart, the replay.
  ksr::serve::ResultCache replica(sp.on() ? replica_store : std::string());
  std::vector<std::string> first_bytes(specs.size());
  std::vector<double> key_plain, key_preset, lookup, execute, store_s;
  // One traced call: a span, and its duration appended to `into`.
  auto timed = [&sp](const char* name, std::vector<double>& into, auto&& fn) {
    const auto t = Clock::now();
    {
      Scope s(sp, name);
      fn();
    }
    into.push_back(seconds_since(t));
  };
  auto request = [&](unsigned idx, std::uint64_t id, const char* cls,
                     bool breakdown) {
    Scope req(sp, "bench.request", id);
    std::string line;
    const auto t = Clock::now();
    {
      Scope s(sp, "serve.roundtrip");
      client->send_line(lines[idx]);
      line = client->read_line();
    }
    const double dt = seconds_since(t);
    ++pass.attempted;
    pass.op_s.push_back(dt);
    const bool miss = first_bytes[idx].empty();
    pass.latency_s[miss ? "miss" : cls].push_back(dt);
    const std::string bytes = result_bytes(line);
    const std::string want_cached =
        miss ? "\"cached\":false" : "\"cached\":true";
    std::string failure;
    if (line.rfind("{\"ok\":true", 0) != 0 || bytes.empty()) {
      failure = "request failed: " + line.substr(0, 200);
    } else if (line.find(want_cached) == std::string::npos) {
      failure = std::string("expected ") + want_cached;
    } else if (miss) {
      failure = check_result(specs[idx].workload, bytes);
      first_bytes[idx] = bytes;
    } else if (bytes != first_bytes[idx]) {
      failure = "hit bytes differ from the miss";
    }
    if (!failure.empty()) {
      pass.failures.push_back("request " + std::to_string(id) + " (" +
                              specs[idx].workload + "): " + failure);
    }
    if (!sp.on() || !breakdown) return;
    // Traced pass: the server's work for this request again, one call at a
    // time, on a replica cache.
    const ksr::serve::JobSpec& spec = specs[idx];
    std::string canonical;
    ksr::serve::CacheKey key;
    timed("serve.key", idx == preset_index ? key_preset : key_plain, [&] {
      canonical = spec.canonical();
      key = ksr::serve::derive_key(spec);
    });
    std::string cached;
    bool hit = false;
    timed("serve.lookup", lookup,
          [&] { hit = replica.lookup(key, canonical, &cached); });
    if (!hit) {
      timed("serve.execute", execute,
            [&] { cached = ksr::serve::execute(spec).result; });
      timed("serve.store", store_s,
            [&] { replica.store(key, canonical, cached); });
    }
    if (cached != first_bytes[idx]) {
      pass.failures.push_back("request " + std::to_string(id) +
                              ": replica result differs from the server's");
    }
  };

  const auto t0 = Clock::now();
  {
    Scope root(sp, "bench.pass");
    std::uint64_t id = 0;
    for (const unsigned idx : stream) {
      request(idx, ++id, idx == preset_index ? "preset_hit" : "hit", true);
    }
    {
      Scope s(sp, "serve.restart");
      client.reset();
      add_counters(pass, server->counters());
      server.reset();  // its destructor unlinks the socket path
      server = std::make_unique<LiveServer>(socket, store);
      client = std::make_unique<ksr::serve::Client>(socket);
    }
    // Campaign replay: a fresh server answers every distinct spec from disk.
    for (unsigned idx = 0; idx < specs.size(); ++idx) {
      request(idx, ++id, "replay", false);
    }
    {
      Scope s(sp, "serve.shutdown");
      client.reset();
      const auto c = server->counters();
      if (c.cache.hits != specs.size() || c.cache.misses != 0) {
        pass.failures.push_back("replay server: " +
                                std::to_string(c.cache.hits) + " hits, " +
                                std::to_string(c.cache.misses) + " misses");
      }
      add_counters(pass, c);
      server.reset();
    }
  }
  pass.wall_s = seconds_since(t0);

  if (pass.sim["serve.stores"] != static_cast<double>(specs.size()) ||
      pass.sim["serve.failures"] != 0 || pass.sim["serve.load_errors"] != 0) {
    pass.failures.push_back("serve counters: stores/failures/load errors off");
  }
  const double served = pass.sim["serve.hits"] + pass.sim["serve.misses"];
  pass.sim["serve.hit_ratio"] =
      served > 0 ? pass.sim["serve.hits"] / served : 0.0;
  if (sp.on()) {
    finish_ratios(pass);
    auto& h = pass.host;
    h["serve.key_us_plain"] = 1e6 * median(key_plain);
    h["serve.key_us_preset"] = 1e6 * median(key_preset);
    h["serve.lookup_us"] = 1e6 * median(lookup);
    h["serve.execute_ms"] = 1e3 * median(execute);
    h["serve.store_us"] = 1e6 * median(store_s);
    // Socket and protocol cost of a plain hit: its round trip minus the
    // key derivation and lookup the server does for it.
    h["serve.socket_us"] =
        std::max(0.0, 1e6 * median(pass.latency_s["hit"]) -
                          h["serve.key_us_plain"] - h["serve.lookup_us"]);
  }
  fs::remove_all(store);
  fs::remove_all(replica_store);
  fs::remove(preset);
  return pass;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"table2_is", table2_is},
      {"fig4_barriers", fig4_barriers},
      {"is128_modeB", is128_mode_b},
      {"serve_mix", serve_mix},
  };
  return all;
}

}  // namespace ksrbench
