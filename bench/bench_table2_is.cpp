// Reproduces Table 2 + the IS curve of Fig. 8: Integer Sort time, speedup,
// efficiency and serial fraction vs processors (including the paper's P=30
// row), with the pmon-confirmed ring-saturation kink from 30 to 32.
//
// Every processor count is an independent simulation, one sweep-harness job
// each; results merge in submission order, keeping the table and --csv
// output bit-identical for any --jobs.
#include "ksr/study/sweep.hpp"

namespace {

// Everything one sweep point reports, read before the job's machine goes.
struct IsPoint {
  double seconds = 0.0;
  bool ranks_valid = true;
  double wait_per_req = 0.0;
};

struct PrefetchPoint {
  double with_pf = 0.0;
  double without = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "table2_is");
  print_header("Integer Sort scalability",
               "Table 2 and Figs. 8 & 9, Section 3.3.2");

  serve::JobSpec is;
  is.workload = "is";
  is.scale = 64;
  is.log2_keys = opt.quick ? 14 : 17;  // paper: 2^23; scaled with the caches
  is.log2_buckets = opt.quick ? 9 : 11;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 2, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 30, 32};

  std::vector<std::function<IsPoint(Job&)>> jobs;
  for (unsigned p : procs) {
    serve::JobSpec spec = is;
    spec.procs = p;
    jobs.emplace_back([spec](Job& job) {
      const JobRun r = job.run(spec);
      return IsPoint{r.at("seconds"), r.result.find("ranks_valid")->as_bool(),
                     r.machine.total_pmon().inject_wait_per_request()};
    });
  }
  const std::vector<IsPoint> points = study.run(jobs);

  std::vector<std::pair<unsigned, double>> measured;
  bool all_valid = true;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    all_valid = all_valid && points[i].ranks_valid;
    measured.emplace_back(procs[i], points[i].seconds);
  }

  TextTable t({"Processors", "Time (s)", "Speedup", "Efficiency",
               "Serial Fraction", "ring wait/req (ns)"});
  const auto rows = study::scaling_rows(measured);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    t.add_row({std::to_string(row.p), TextTable::num(row.seconds, 5),
               TextTable::num(row.speedup, 5),
               row.p == 1 ? "-" : TextTable::num(row.efficiency, 3),
               row.p == 1 ? "-" : TextTable::num(row.serial_fraction, 6),
               TextTable::num(points[i].wait_per_req, 0)});
  }
  std::cout << "Number of input keys = 2^" << is.log2_keys
            << ", buckets = 2^" << is.log2_buckets
            << ", machine caches scaled by 1/" << is.scale
            << ", ranks valid = " << (all_valid ? "yes" : "NO") << "\n";
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nPaper expectations (Table 2): near-linear speedup to 8\n"
           "processors (caching effects dominate), efficiency decaying and\n"
           "the serial fraction *increasing* with P (phases 4 and 6 of the\n"
           "algorithm), with a sharper serial-fraction step from 30 to 32 as\n"
           "simultaneous accesses push the ring toward saturation — visible\n"
           "here in the per-request slot-wait column.\n";
  }

  // ---- Prefetch ablation: phase 2 pulls the other processors' local
  // counts ahead of the all-to-all reduction ("prefetch ... used quite
  // extensively", §4).
  std::cout << "\n--- prefetch ablation (phase 2) ---\n";
  const std::vector<unsigned> ab_procs = opt.quick
                                             ? std::vector<unsigned>{8}
                                             : std::vector<unsigned>{8, 16, 32};
  std::vector<std::function<PrefetchPoint(Job&)>> ab_jobs;
  for (unsigned p : ab_procs) {
    serve::JobSpec with_pf = is;
    with_pf.procs = p;
    serve::JobSpec without = with_pf;
    without.kind = "no-prefetch";
    ab_jobs.emplace_back([with_pf, without](Job& job) {
      const std::string ps = std::to_string(with_pf.procs);
      return PrefetchPoint{
          job.run(with_pf, "is-prefetch p=" + ps).at("seconds"),
          job.run(without, "is-noprefetch p=" + ps).at("seconds")};
    });
  }
  const std::vector<PrefetchPoint> ab = study.run(ab_jobs);

  TextTable ft({"Processors", "prefetch (s)", "no prefetch (s)", "gain"});
  for (std::size_t i = 0; i < ab_procs.size(); ++i) {
    ft.add_row({std::to_string(ab_procs[i]), TextTable::num(ab[i].with_pf, 5),
                TextTable::num(ab[i].without, 5),
                TextTable::num((1.0 - ab[i].with_pf / ab[i].without) * 100.0,
                               2) +
                    "%"});
  }
  if (opt.csv) {
    ft.print_csv();
  } else {
    ft.print();
  }
  return 0;
}
