// Reproduces Table 1 + the CG curve of Fig. 8: Conjugate Gradient time,
// speedup, efficiency and Karp-Flatt serial fraction vs processors, plus
// the poststore ablation discussed in §3.3.1.
//
// Scaling: the paper ran n=14000 / nnz=2.03e6 against 0.25 MB + 32 MB
// caches. We scale problem and caches together (scaled_by(64)) so the
// working-set/cache ratios — which drive the poor small-P efficiency, the
// superunitary 8..16 region, and the 32-processor drop — are preserved.
//
// Every measurement is an independent simulation, one sweep-harness job
// each, merged in submission order (bit-identical output for any --jobs).
#include "ksr/nas/cg.hpp"
#include "ksr/study/sweep.hpp"

namespace {

struct CgPoint {
  double seconds = 0.0;
  std::uint64_t nnz = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "table1_cg");
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

  auto machine_cfg = [scale](unsigned p) {
    return machine::MachineConfig::ksr1(p).scaled_by(scale);
  };
  std::vector<std::function<CgPoint(Job&)>> jobs;
  for (unsigned p : procs) {
    jobs.emplace_back([p, cfg, &machine_cfg](Job& job) {
      const nas::CgResult r = run_cg(
          job.machine(machine_cfg(p), "cg p=" + std::to_string(p)), cfg);
      return CgPoint{r.seconds, r.nnz};
    });
  }
  const std::vector<CgPoint> points = study.run(jobs);

  std::vector<std::pair<unsigned, double>> measured;
  std::uint64_t nnz = 0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
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

  // One ablation run per job, base and variant separate (2 per processor
  // count) for better host load balance.
  auto ablation = [&](const std::string& base_tag, const std::string& var_tag,
                      const nas::CgConfig& variant) {
    std::vector<std::function<double(Job&)>> ab_jobs;
    for (unsigned p : ab_procs) {
      const std::string ps = std::to_string(p);
      for (const auto& run :
           {std::pair{base_tag, cfg}, std::pair{var_tag, variant}}) {
        ab_jobs.emplace_back([p, c = run.second, label = run.first + " p=" + ps,
                              &machine_cfg](Job& job) {
          return run_cg(job.machine(machine_cfg(p), label), c).seconds;
        });
      }
    }
    return study.run(ab_jobs);
  };

  // ---- Poststore ablation (§3.3.1): propagate q-slices as produced so the
  // serial section does not stall fetching them.
  std::cout << "\n--- poststore ablation ---\n";
  nas::CgConfig with_poststore = cfg;
  with_poststore.use_poststore = true;
  const std::vector<double> ps =
      ablation("cg-nopoststore", "cg-poststore", with_poststore);

  TextTable pt({"Processors", "no poststore (s)", "poststore (s)", "gain"});
  for (std::size_t i = 0; i < ab_procs.size(); ++i) {
    const double base = ps[2 * i], post = ps[2 * i + 1];
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
  nas::CgConfig without_prefetch = cfg;
  without_prefetch.use_prefetch = false;
  const std::vector<double> pf =
      ablation("cg-prefetch", "cg-noprefetch", without_prefetch);

  TextTable ft({"Processors", "prefetch (s)", "no prefetch (s)", "gain"});
  for (std::size_t i = 0; i < ab_procs.size(); ++i) {
    const double with_pf = pf[2 * i], without = pf[2 * i + 1];
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
