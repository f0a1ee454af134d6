// Extension: the Block Tridiagonal (BT) application of the paper's
// reference [6] ("Implementation of EP, SP and BT on the KSR-1"). BT is
// compute-dense (5x5 block operations per grid point), so it should scale
// at least as well as SP — the contrast quantifies how much of SP's
// behaviour is memory-system-bound.
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ext_bt");
  print_header("Extension: Block Tridiagonal application scalability",
               "reference [6]; contrast with Table 3 (SP)");

  serve::JobSpec bt;
  bt.workload = "bt";
  bt.kind = "prefetch";
  bt.scale = 16;
  bt.n = opt.quick ? 8 : 16;
  bt.iters = opt.quick ? 1 : 2;
  serve::JobSpec sp = bt;
  sp.workload = "sp";
  sp.kind = "padded-prefetch";

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16};

  std::vector<std::function<double(Job&)>> jobs;
  for (unsigned p : procs) {
    for (serve::JobSpec spec : {bt, sp}) {
      spec.procs = p;
      jobs.emplace_back([spec](Job& job) {
        return job.run(spec).at("seconds_per_iteration");
      });
    }
  }
  const std::vector<double> times = study.run(jobs);
  std::vector<std::pair<unsigned, double>> bt_m, sp_m;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    bt_m.emplace_back(procs[i], times[2 * i]);
    sp_m.emplace_back(procs[i], times[2 * i + 1]);
  }
  const auto bt_rows = study::scaling_rows(bt_m);
  const auto sp_rows = study::scaling_rows(sp_m);

  TextTable t({"procs", "BT t/iter (s)", "BT speedup", "SP t/iter (s)",
               "SP speedup"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    t.add_row({std::to_string(procs[i]),
               TextTable::num(bt_rows[i].seconds, 5),
               TextTable::num(bt_rows[i].speedup, 2),
               TextTable::num(sp_rows[i].seconds, 5),
               TextTable::num(sp_rows[i].speedup, 2)});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout << "\nExpected: BT's block-dense compute amortizes the same\n"
                 "communication pattern better than SP's scalar sweeps, so\n"
                 "its efficiency at a given processor count is >= SP's.\n";
  }
  return 0;
}
