// Reproduces Table 3: Scalar Pentadiagonal time per iteration and speedup
// vs processors (optimised variant: padded layout + prefetch, as the paper's
// Table 3 configuration).
#include "ksr/nas/sp.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "table3_sp");
  print_header("Scalar Pentadiagonal application scalability",
               "Table 3, Section 3.3.3");

  nas::SpConfig cfg;
  cfg.n = opt.quick ? 16 : 32;  // paper: 64^3; scaled with the caches
  cfg.iterations = opt.quick ? 1 : 2;
  cfg.padded_layout = true;
  cfg.use_prefetch = true;
  const unsigned scale = 16;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 16}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 31};

  std::vector<std::function<double(Job&)>> jobs;
  for (unsigned p : procs) {
    jobs.emplace_back([p, scale, cfg](Job& job) {
      machine::Machine& m =
          job.machine(machine::MachineConfig::ksr1(p).scaled_by(scale),
                      "sp p=" + std::to_string(p));
      return run_sp(m, cfg).seconds_per_iteration;
    });
  }
  const std::vector<double> times = study.run(jobs);
  std::vector<std::pair<unsigned, double>> measured;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    measured.emplace_back(procs[i], times[i]);
  }

  TextTable t({"Processors", "Time per iteration (s)", "Speedup"});
  for (const auto& row : study::scaling_rows(measured)) {
    t.add_row({std::to_string(row.p), TextTable::num(row.seconds, 5),
               row.p == 1 ? "-" : TextTable::num(row.speedup, 1)});
  }
  std::cout << "data-size = " << cfg.n << "x" << cfg.n << "x" << cfg.n
            << ", machine caches scaled by 1/" << scale << "\n";
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nPaper expectations (Table 3, 64^3 on real hardware): nearly\n"
           "linear scaling — 2.0x at 2, 3.9x at 4, 7.7x at 8, 15.3x at 16,\n"
           "27.8x at 31 processors.\n";
  }
  return 0;
}
