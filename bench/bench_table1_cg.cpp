// Reproduces Table 1 + the CG curve of Fig. 8: Conjugate Gradient time,
// speedup, efficiency and Karp-Flatt serial fraction vs processors, plus
// the poststore ablation discussed in §3.3.1.
//
// Scaling: the paper ran n=14000 / nnz=2.03e6 against 0.25 MB + 32 MB
// caches. We scale problem and caches together (scaled_by(64)) so the
// working-set/cache ratios — which drive the poor small-P efficiency, the
// superunitary 8..16 region, and the 32-processor drop — are preserved.
//
// Every measurement is an independent simulation, sharded over host cores
// through SweepRunner and merged in submission order (bit-identical output
// for any --jobs).
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/cg.hpp"

namespace {

struct CgPoint {
  double seconds = 0.0;
  std::uint64_t nnz = 0;
  ksr::obs::JobObs obs;
};

// One ablation run (base or variant) with its observability handle.
struct Run {
  double seconds = 0.0;
  ksr::obs::JobObs obs;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "table1_cg");
  SweepRunner runner(opt.jobs);
  print_header("Conjugate Gradient scalability",
               "Table 1 and Fig. 8 (CG), Section 3.3.1");

  nas::CgConfig cfg;
  cfg.n = opt.quick ? 600 : 1750;
  cfg.nnz_per_row = opt.quick ? 24 : 72;  // ~126k nonzeros at default size
  cfg.iterations = opt.quick ? 3 : 6;
  const unsigned scale = 64;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 2, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 32};

  std::vector<std::function<CgPoint()>> jobs;
  jobs.reserve(procs.size());
  for (unsigned p : procs) {
    jobs.emplace_back([p, scale, cfg, &session] {
      machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(scale));
      CgPoint pt;
      pt.obs = session.job();
      pt.obs.attach(m);
      const nas::CgResult r = run_cg(m, cfg);
      pt.obs.finish();
      pt.seconds = r.seconds;
      pt.nnz = r.nnz;
      return pt;
    });
  }
  std::vector<CgPoint> points = runner.run(jobs);

  std::vector<std::pair<unsigned, double>> measured;
  std::uint64_t nnz = 0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (session.active()) {
      session.collect(std::move(points[i].obs),
                      "cg p=" + std::to_string(procs[i]));
    }
    measured.emplace_back(procs[i], points[i].seconds);
    nnz = points[i].nnz;
  }

  TextTable t({"Processors", "Time (s)", "Speedup", "Efficiency",
               "Serial Fraction"});
  for (const auto& row : study::scaling_rows(measured)) {
    t.add_row({std::to_string(row.p), TextTable::num(row.seconds, 5),
               TextTable::num(row.speedup, 5),
               row.p == 1 ? "-" : TextTable::num(row.efficiency, 3),
               row.p == 1 ? "-" : TextTable::num(row.serial_fraction, 6)});
  }
  std::cout << "datasize n = " << cfg.n << ", nonzeros = " << nnz
            << ", machine caches scaled by 1/" << scale << "\n";
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nPaper expectations (Table 1): modest efficiency up to 4 procs\n"
           "(working set exceeds per-cell caches), superunitary steps in the\n"
           "8..16 region once partitions fit in the local caches, and a drop\n"
           "at 32 as the serial section's remote references grow.\n";
  }

  const std::vector<unsigned> ab_procs =
      opt.quick ? std::vector<unsigned>{8} : std::vector<unsigned>{4, 8, 16, 32};

  // ---- Poststore ablation (§3.3.1): propagate q-slices as produced so the
  // serial section does not stall fetching them. Base and variant runs are
  // separate jobs (2 per processor count) for better host load balance.
  std::cout << "\n--- poststore ablation ---\n";
  std::vector<std::function<Run()>> ps_jobs;
  ps_jobs.reserve(2 * ab_procs.size());
  for (unsigned p : ab_procs) {
    ps_jobs.emplace_back([p, scale, cfg, &session] {
      machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(scale));
      Run r;
      r.obs = session.job();
      r.obs.attach(m);
      r.seconds = run_cg(m, cfg).seconds;
      r.obs.finish();
      return r;
    });
    ps_jobs.emplace_back([p, scale, cfg, &session] {
      nas::CgConfig c2 = cfg;
      c2.use_poststore = true;
      machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(scale));
      Run r;
      r.obs = session.job();
      r.obs.attach(m);
      r.seconds = run_cg(m, c2).seconds;
      r.obs.finish();
      return r;
    });
  }
  std::vector<Run> ps = runner.run(ps_jobs);

  TextTable pt({"Processors", "no poststore (s)", "poststore (s)", "gain"});
  for (std::size_t i = 0; i < ab_procs.size(); ++i) {
    if (session.active()) {
      const std::string p = std::to_string(ab_procs[i]);
      session.collect(std::move(ps[2 * i].obs), "cg-nopoststore p=" + p);
      session.collect(std::move(ps[2 * i + 1].obs), "cg-poststore p=" + p);
    }
    const double base = ps[2 * i].seconds, post = ps[2 * i + 1].seconds;
    pt.add_row({std::to_string(ab_procs[i]), TextTable::num(base, 5),
                TextTable::num(post, 5),
                TextTable::num((1.0 - post / base) * 100.0, 2) + "%"});
  }
  if (opt.csv) {
    pt.print_csv();
  } else {
    pt.print();
    std::cout << "\nPaper: poststore improves CG (~3% at 16 processors), with\n"
                 "smaller gains at high processor counts as the simultaneous\n"
                 "poststores approach ring saturation.\n";
  }

  // ---- Prefetch ablation: the implementation pulls the rewritten p vector
  // ahead of each mat-vec ("prefetch ... used quite extensively", §4).
  std::cout << "\n--- prefetch ablation ---\n";
  std::vector<std::function<Run()>> pf_jobs;
  pf_jobs.reserve(2 * ab_procs.size());
  for (unsigned p : ab_procs) {
    pf_jobs.emplace_back([p, scale, cfg, &session] {
      machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(scale));
      Run r;
      r.obs = session.job();
      r.obs.attach(m);
      r.seconds = run_cg(m, cfg).seconds;
      r.obs.finish();
      return r;
    });
    pf_jobs.emplace_back([p, scale, cfg, &session] {
      nas::CgConfig c2 = cfg;
      c2.use_prefetch = false;
      machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(scale));
      Run r;
      r.obs = session.job();
      r.obs.attach(m);
      r.seconds = run_cg(m, c2).seconds;
      r.obs.finish();
      return r;
    });
  }
  std::vector<Run> pf = runner.run(pf_jobs);

  TextTable ft({"Processors", "prefetch (s)", "no prefetch (s)", "gain"});
  for (std::size_t i = 0; i < ab_procs.size(); ++i) {
    if (session.active()) {
      const std::string p = std::to_string(ab_procs[i]);
      session.collect(std::move(pf[2 * i].obs), "cg-prefetch p=" + p);
      session.collect(std::move(pf[2 * i + 1].obs), "cg-noprefetch p=" + p);
    }
    const double with_pf = pf[2 * i].seconds, without = pf[2 * i + 1].seconds;
    ft.add_row({std::to_string(ab_procs[i]), TextTable::num(with_pf, 5),
                TextTable::num(without, 5),
                TextTable::num((1.0 - with_pf / without) * 100.0, 2) + "%"});
  }
  if (opt.csv) {
    ft.print_csv();
  } else {
    ft.print();
  }
  return 0;
}
