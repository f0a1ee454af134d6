// Reproduces Fig. 3 ("Performance of locks"): time for each processor to
// complete a fixed number of lock operations under the paper's synthetic
// workload — hardware exclusive lock vs. the software read-write ticket
// lock at varying read-sharing percentages.
//
// Workload (paper footnote 4, sync::lock_seconds): each processor repeatedly
// accesses data in read or write mode with a delay of 10000 local operations
// between successive lock requests; the lock is held for 3000 local
// operations.
//
// Each (P, variant) cell is an independent simulation — one sweep-harness
// job per cell, merged in submission order.
#include "ksr/study/sweep.hpp"
#include "ksr/sync/locks.hpp"

using namespace ksr;         // NOLINT
using namespace ksr::study;  // NOLINT
using machine::MachineConfig;

int main(int argc, char** argv) {
  bool full = false;
  const BenchOptions opt = BenchOptions::parse(
      argc, argv, {{"full", &full, "the paper's 500 operations (slow)"}});
  Study study(opt, "fig3_locks");
  // Paper: "for 500 operations". Scaled default keeps the event count sane;
  // --full uses the paper's 500.
  const int ops = full ? 500 : (opt.quick ? 25 : 40);

  print_header("Lock performance (" + std::to_string(ops) +
                   " operations per processor)",
               "Fig. 3, Section 3.2.1");

  TextTable t({"procs", "exclusive (s)", "rw 0% rd (s)", "rw 20% rd (s)",
               "rw 40% rd (s)", "rw 60% rd (s)", "rw 80% rd (s)",
               "rw 100% rd (s)"});
  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 32};
  const std::vector<unsigned> read_pcts{0, 20, 40, 60, 80, 100};

  std::vector<std::function<double(Job&)>> jobs;
  for (unsigned p : procs) {
    const std::string ps = std::to_string(p);
    jobs.emplace_back([p, ops, ps](Job& job) {
      return sync::lock_seconds(
          job.machine(MachineConfig::ksr1(p), "exclusive p=" + ps),
          sync::LockKind::kHardware, ops);
    });
    for (unsigned rd : read_pcts) {
      jobs.emplace_back([p, ops, rd, ps](Job& job) {
        return sync::lock_seconds(
            job.machine(MachineConfig::ksr1(p),
                        "rw" + std::to_string(rd) + " p=" + ps),
            sync::LockKind::kReadWrite, ops, rd);
      });
    }
  }
  const std::vector<double> cells = study.run(jobs);

  std::size_t j = 0;
  for (unsigned p : procs) {
    std::vector<std::string> row{std::to_string(p)};
    for (std::size_t v = 0; v <= read_pcts.size(); ++v) {
      row.push_back(TextTable::num(cells[j++], 4));
    }
    t.add_row(row);
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nPaper expectations: exclusive-lock time grows linearly with\n"
           "processors; the software read-write lock improves steadily with\n"
           "the read-sharing percentage and beats the hardware lock for\n"
           "read-heavy mixes (readers share the lock; writers serialize).\n";
  }
  return 0;
}
