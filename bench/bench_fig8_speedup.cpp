// Reproduces Fig. 8 ("Speedup for CG and IS"): the two speedup curves on
// one axis, P = 1..32. (The underlying runs are the Table 1 / Table 2
// configurations; this binary prints just the figure's two series.)
//
// `--scale-out` switches to the ring-of-rings extrapolation instead: the
// same two kernels on sharded-directory machines of 128, 512 and 1088
// cells (34 leaf rings x 32 cells is the largest hierarchy the ARD ring
// admits), partitioned into up to four domains so --sim-threads N runs
// them as a real multi-domain parallel simulation (docs/PARALLEL.md).
// The paper stops at 32 processors; these rows ask what its Fig. 8 curves
// would have done at full machine scale.
//
// One SweepRunner job per (kernel, P) run, merged in submission order.
//
// `--warm-start` / `--cold-start` switch the IS series to the split-phase
// kernel (docs/CHECKPOINT.md): each P runs IS twice, prefetch on and off.
// The two variants share an identical warm-up, so under --warm-start the
// no-prefetch point forks from a checkpoint captured after the prefetch
// point's warm-up instead of re-simulating it; --cold-start runs the same
// split-phase points without forking. The two modes print byte-identical
// tables (restore is bit-exact and preserves the events_dispatched
// counter); --warm-start additionally reports the skipped warm-up wall time
// as `warm_saved_ms=` on the [host] line. `--checkpoint-at P` writes each
// donor checkpoint to <P>.p<procs>.ckpt; `--restore-from P` re-uses them,
// skipping even the donor warm-ups.
#include "bench_common.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/nas/is.hpp"

namespace {

struct Run {
  double seconds = 0.0;
  double seconds_np = 0.0;  // split-phase modes: the no-prefetch variant
  std::uint64_t events = 0;
  std::uint64_t quanta = 0;
  std::uint64_t saved_ms = 0;  // warm-up wall time a fork skipped
  // Scale-out point telemetry (--scale-out only): fuels the per-point
  // `[host] point` stderr lines that report.py folds into BENCH_host.json.
  std::uint64_t barrier_wait_ppm = 0;   // host wall clock (self-profiler)
  std::uint64_t ring_util_ppm_l0 = 0;   // peak leaf-ring slot utilization
  std::uint64_t ring_util_ppm_l1 = 0;   // level-1 ring (0 when analytic)
  int hot_shard = -1;                   // hottest home leaf; -1 = no shards
  std::uint64_t hot_shard_requests = 0;
  ksr::obs::JobObs obs;
  ksr::obs::JobObs obs_np;
};

// Snapshot the integer topology telemetry while the machine is still alive
// (jobs destroy their machine before merging). The ring-utilization and
// shard numbers are simulated/deterministic; barrier_wait_ppm is the host
// self-profiler's wall-clock fraction and varies run to run — all of it
// stays on stderr, never in the byte-stable tables.
void capture_point(Run& r, ksr::machine::KsrMachine& m) {
  ksr::obs::topo::Snapshot s;
  m.topo_snapshot(s);
  r.ring_util_ppm_l0 = ksr::obs::topo::peak_util_ppm(s, 0);
  r.ring_util_ppm_l1 = ksr::obs::topo::peak_util_ppm(s, 1);
  if (const ksr::obs::topo::ShardUse* h = ksr::obs::topo::hottest_shard(s)) {
    r.hot_shard = static_cast<int>(h->home_leaf);
    r.hot_shard_requests = h->requests;
  }
  r.barrier_wait_ppm = m.parallel_engine().host_profile().barrier_wait_ppm();
}

// Partition width for the scale-out rows: whole leaf rings, at most four
// domains (cells_per_domain = 0 leaves small machines single-domain).
unsigned scale_out_cpd(unsigned procs) {
  if (procs < 128) return 0;
  const unsigned quarter = (procs + 3) / 4;
  return 32 * ((quarter + 31) / 32);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  bool scale_out = false;
  const BenchOptions opt = BenchOptions::parse(
      argc, argv,
      {{"scale-out", &scale_out,
        "the 128-1088-cell ring-of-rings extrapolation"}});
  if (opt.warm_start && opt.cold_start) {
    std::cerr << "bench_fig8_speedup: --warm-start and --cold-start are "
                 "mutually exclusive\n";
    return 1;
  }
  const bool split_is = opt.warm_start || opt.cold_start;
  if (!opt.warm_start &&
      (!opt.checkpoint_at.empty() || !opt.restore_from.empty())) {
    std::cerr << "warning: --checkpoint-at/--restore-from need --warm-start; "
                 "ignored\n";
  }
  HostMetrics host(scale_out ? "fig8_scaleout" : "fig8_speedup");
  obs::Session session(opt.obs,
                       scale_out ? "fig8_scaleout" : "fig8_speedup");
  SweepRunner runner(opt.jobs);
  host.set_jobs(runner.jobs());
  host.set_sim_threads(opt.sim_threads);
  print_header(scale_out ? "Speedup for CG and IS at 128-1088 cells"
                         : "Speedup for CG and IS",
               scale_out ? "Fig. 8 extrapolated past the paper's 32 cells"
                         : "Fig. 8, Section 3.3");

  nas::CgConfig cg;
  cg.n = opt.quick ? 600 : 1750;
  cg.nnz_per_row = opt.quick ? 24 : 72;
  cg.iterations = opt.quick ? 2 : 4;
  nas::IsConfig is;
  is.log2_keys = opt.quick ? 13 : 16;
  is.log2_buckets = opt.quick ? 9 : 11;

  const std::vector<unsigned> procs =
      scale_out ? (opt.quick ? std::vector<unsigned>{1, 128}
                             : std::vector<unsigned>{1, 128, 512, 1088})
                : (opt.quick ? std::vector<unsigned>{1, 4, 16}
                             : std::vector<unsigned>{1, 2, 4, 8, 16, 24, 32});

  const unsigned sim_threads = opt.sim_threads;
  auto make_cfg = [scale_out, sim_threads](unsigned p) {
    machine::MachineConfig c = machine::MachineConfig::ksr1(p)
                                   .scaled_by(64)
                                   .with_sim_threads(sim_threads);
    if (scale_out) c = c.with_cells_per_domain(scale_out_cpd(p));
    return c;
  };

  std::vector<std::function<Run()>> jobs;
  jobs.reserve(2 * procs.size());
  for (unsigned p : procs) {
    jobs.emplace_back([p, cg, scale_out, &session, &make_cfg] {
      machine::KsrMachine m(make_cfg(p));
      Run r;
      r.obs = session.job();
      r.obs.attach(m);
      r.seconds = run_cg(m, cg).seconds;
      r.obs.finish();
      r.events = m.parallel_engine().events_dispatched();
      r.quanta = m.parallel_engine().quanta();
      if (scale_out) capture_point(r, m);
      return r;
    });
    if (!split_is) {
      jobs.emplace_back([p, is, scale_out, &session, &make_cfg] {
        machine::KsrMachine m(make_cfg(p));
        Run r;
        r.obs = session.job();
        r.obs.attach(m);
        r.seconds = run_is(m, is).seconds;
        r.obs.finish();
        r.events = m.parallel_engine().events_dispatched();
        r.quanta = m.parallel_engine().quanta();
        if (scale_out) capture_point(r, m);
        return r;
      });
      continue;
    }
    // Split-phase IS: prefetch on and off share one warm-up. Under
    // --warm-start the second variant (and, with --restore-from, both)
    // forks from the donor checkpoint; under --cold-start each variant
    // re-simulates its own warm-up. Restore preserves the donor's event
    // and quantum counters, so the two modes report identical totals.
    jobs.emplace_back([p, is, scale_out, &session, &make_cfg, &opt] {
      nas::IsConfig is_np = is;
      is_np.use_prefetch = false;
      const std::string suffix = ".p" + std::to_string(p) + ".ckpt";
      const std::string save_path =
          opt.checkpoint_at.empty() ? "" : opt.checkpoint_at + suffix;
      const std::string load_path =
          opt.restore_from.empty() ? "" : opt.restore_from + suffix;
      Run r;
      std::vector<std::byte> image;
      {
        machine::KsrMachine m(make_cfg(p));
        r.obs = session.job();
        r.obs.attach(m);
        nas::IsSplit split(m, is);
        if (!load_path.empty()) {
          m.restore_from(load_path);
        } else {
          const auto w0 = std::chrono::steady_clock::now();
          split.run_warmup();
          if (opt.warm_start) {
            // The fork below skips a warm-up of (approximately) this cost.
            r.saved_ms = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - w0)
                    .count());
            image = m.checkpoint();
            if (!save_path.empty()) ckpt::write_file(save_path, image);
          }
        }
        r.seconds = split.run_ranked().seconds;
        r.obs.finish();
        r.events = m.parallel_engine().events_dispatched();
        r.quanta = m.parallel_engine().quanta();
        if (scale_out) capture_point(r, m);
      }
      {
        machine::KsrMachine m(make_cfg(p));
        r.obs_np = session.job();
        r.obs_np.attach(m);
        nas::IsSplit split(m, is_np);
        if (!load_path.empty()) {
          m.restore_from(load_path);
        } else if (opt.warm_start) {
          m.restore(image);
        } else {
          split.run_warmup();
        }
        r.seconds_np = split.run_ranked().seconds;
        r.obs_np.finish();
        r.events += m.parallel_engine().events_dispatched();
        r.quanta += m.parallel_engine().quanta();
      }
      return r;
    });
  }
  std::vector<Run> seconds = runner.run(jobs);

  // Per-point scale-out telemetry, machine-parsable like the [host] bench
  // line: report.py folds these into BENCH_host.json under "points".
  auto point_line = [scale_out](const char* kernel, unsigned p, const Run& r) {
    if (!scale_out) return;
    std::cerr << "[host] point bench=fig8_scaleout kernel=" << kernel
              << " procs=" << p << " quanta=" << r.quanta
              << " barrier_wait_ppm=" << r.barrier_wait_ppm
              << " ring_util_ppm_l0=" << r.ring_util_ppm_l0
              << " ring_util_ppm_l1=" << r.ring_util_ppm_l1
              << " hot_shard=" << r.hot_shard
              << " hot_shard_requests=" << r.hot_shard_requests << "\n";
  };

  std::vector<std::pair<unsigned, double>> cg_t, is_t, is_np_t;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    host.add_events(seconds[2 * i].events + seconds[2 * i + 1].events);
    host.add_quanta(seconds[2 * i].quanta + seconds[2 * i + 1].quanta);
    point_line("cg", procs[i], seconds[2 * i]);
    point_line("is", procs[i], seconds[2 * i + 1]);
    if (opt.warm_start) host.add_warm_saved_ms(seconds[2 * i + 1].saved_ms);
    if (session.active()) {
      const std::string p = std::to_string(procs[i]);
      session.collect(std::move(seconds[2 * i].obs), "cg p=" + p);
      session.collect(std::move(seconds[2 * i + 1].obs), "is p=" + p);
      if (split_is) {
        session.collect(std::move(seconds[2 * i + 1].obs_np),
                        "is(no-pf) p=" + p);
      }
    }
    cg_t.emplace_back(procs[i], seconds[2 * i].seconds);
    is_t.emplace_back(procs[i], seconds[2 * i + 1].seconds);
    if (split_is) {
      is_np_t.emplace_back(procs[i], seconds[2 * i + 1].seconds_np);
    }
  }
  const auto cg_rows = study::scaling_rows(cg_t);
  const auto is_rows = study::scaling_rows(is_t);

  std::vector<std::string> headers{"procs", "CG speedup", "IS speedup"};
  if (split_is) headers.push_back("IS(no-pf) speedup");
  TextTable t(headers);
  const auto is_np_rows =
      split_is ? study::scaling_rows(is_np_t)
               : std::vector<study::ScalingRow>{};
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::vector<std::string> row{std::to_string(procs[i]),
                                 TextTable::num(cg_rows[i].speedup, 2),
                                 TextTable::num(is_rows[i].speedup, 2)};
    if (split_is) row.push_back(TextTable::num(is_np_rows[i].speedup, 2));
    t.add_row(std::move(row));
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    if (scale_out) {
      std::cout << "\nExtrapolation past the paper: sharded directories and"
                   "\nper-leaf rings keep both kernels scaling beyond 128"
                   " cells\nuntil problem-size per cell, not the level-1"
                   " ring, is the limit.\n";
    } else {
      std::cout << "\nPaper expectations (Fig. 8): both rise to ~16"
                   " processors;"
                   "\nCG reaches the low twenties at 32 while IS flattens"
                   " near 19 and\ndips slightly from 30 to 32 (ring"
                   " saturation).\n";
    }
  }
  return 0;
}
