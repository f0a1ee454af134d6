// Extension: the two NAS kernels the paper did not implement (MG, FT),
// completing the five-kernel suite. Their communication characters bracket
// the paper's kernels: MG's coarse levels are latency-bound fine-grain
// synchronization (like the barrier study writ small), while FT's
// per-iteration transpose moves the whole array across the partition — a
// heavier ring load than even IS's phase 2.
#include "ksr/nas/ft.hpp"
#include "ksr/nas/mg.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ext_mg_ft");
  print_header("Extension: MG and FT kernel scalability",
               "the two NAS kernels beyond the paper's three");

  nas::MgConfig mg;
  mg.log2_n = opt.quick ? 4 : 5;
  mg.v_cycles = opt.quick ? 1 : 2;
  nas::FtConfig ft;
  ft.log2_n = opt.quick ? 3 : 4;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 32};

  struct Run {
    double seconds = 0, wait_per_req = 0;
  };
  std::vector<std::function<Run(Job&)>> jobs;
  for (unsigned p : procs) {
    const std::string ps = std::to_string(p);
    jobs.emplace_back([p, ps, mg](Job& job) {
      machine::Machine& m = job.machine(
          machine::MachineConfig::ksr1(p).scaled_by(16), "mg p=" + ps);
      return Run{run_mg(m, mg).seconds};
    });
    jobs.emplace_back([p, ps, ft](Job& job) {
      machine::Machine& m = job.machine(
          machine::MachineConfig::ksr1(p).scaled_by(64), "ft p=" + ps);
      Run r{run_ft(m, ft).seconds};
      cache::PerfMonitor total;
      for (unsigned c = 0; c < p; ++c) total.add(m.cell_pmon(c));
      if (total.ring_requests) {
        r.wait_per_req = static_cast<double>(total.inject_wait_ns) /
                         static_cast<double>(total.ring_requests);
      }
      return r;
    });
  }
  const std::vector<Run> runs = study.run(jobs);
  std::vector<std::pair<unsigned, double>> mg_m, ft_m;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    mg_m.emplace_back(procs[i], runs[2 * i].seconds);
    ft_m.emplace_back(procs[i], runs[2 * i + 1].seconds);
  }
  const auto mg_rows = study::scaling_rows(mg_m);
  const auto ft_rows = study::scaling_rows(ft_m);

  TextTable t({"procs", "MG time (s)", "MG speedup", "FT time (s)",
               "FT speedup", "FT ring wait/req (ns)"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    t.add_row({std::to_string(procs[i]),
               TextTable::num(mg_rows[i].seconds, 5),
               TextTable::num(mg_rows[i].speedup, 2),
               TextTable::num(ft_rows[i].seconds, 5),
               TextTable::num(ft_rows[i].speedup, 2),
               TextTable::num(runs[2 * i + 1].wait_per_req, 0)});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nExpected: MG speedup saturates early (the 2^3..8^3 coarse\n"
           "levels have less work than processors: latency floor); FT scales\n"
           "until its transpose saturates the ring — watch the wait column\n"
           "climb with P, the same diagnostic the paper reads for IS.\n";
  }
  return 0;
}
