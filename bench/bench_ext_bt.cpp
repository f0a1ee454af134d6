// Extension: the Block Tridiagonal (BT) application of the paper's
// reference [6] ("Implementation of EP, SP and BT on the KSR-1"). BT is
// compute-dense (5x5 block operations per grid point), so it should scale
// at least as well as SP — the contrast quantifies how much of SP's
// behaviour is memory-system-bound.
#include "ksr/nas/bt.hpp"
#include "ksr/nas/sp.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ext_bt");
  print_header("Extension: Block Tridiagonal application scalability",
               "reference [6]; contrast with Table 3 (SP)");

  nas::BtConfig bt;
  bt.n = opt.quick ? 8 : 16;
  bt.iterations = opt.quick ? 1 : 2;
  bt.use_prefetch = true;
  nas::SpConfig sp;
  sp.n = opt.quick ? 8 : 16;
  sp.iterations = bt.iterations;
  sp.padded_layout = true;
  sp.use_prefetch = true;
  const unsigned scale = 16;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16};

  std::vector<std::function<double(Job&)>> jobs;
  for (unsigned p : procs) {
    const auto mc = machine::MachineConfig::ksr1(p).scaled_by(scale);
    const std::string ps = std::to_string(p);
    jobs.emplace_back([mc, ps, bt](Job& job) {
      return run_bt(job.machine(mc, "bt p=" + ps), bt).seconds_per_iteration;
    });
    jobs.emplace_back([mc, ps, sp](Job& job) {
      return run_sp(job.machine(mc, "sp p=" + ps), sp).seconds_per_iteration;
    });
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
