// Extension study: the classic spin-lock alternatives (Anderson [1],
// Mellor-Crummey/Scott [13]) replayed on the simulated KSR-1 ring and on
// the Symmetry bus — the experiment those papers ran on their machines,
// brought to the machine this paper studies.
#include "ksr/study/sweep.hpp"
#include "ksr/sync/spinlocks.hpp"

namespace {

using namespace ksr;         // NOLINT
using namespace ksr::study;  // NOLINT

double time_lock(machine::Machine& m, sync::SpinLockKind kind, int ops) {
  auto lock = sync::make_spinlock(m, kind);
  double t = 0;
  m.run([&](machine::Cpu& cpu) {
    for (int i = 0; i < ops; ++i) {
      lock->acquire(cpu);
      cpu.work(300);  // short critical section
      lock->release(cpu);
      cpu.work(600 + cpu.rng().below(600));
    }
    if (cpu.seconds() > t) t = cpu.seconds();
  });
  return t / ops * 1e6;  // microseconds per acquire/release pair
}

void sweep(Study& study, const std::string& title, const std::string& tag,
           const machine::MachineConfig& base_cfg,
           const std::vector<unsigned>& procs, int ops, bool csv) {
  const auto kinds = sync::all_spinlock_kinds();
  std::vector<std::function<double(Job&)>> jobs;
  for (sync::SpinLockKind kind : kinds) {
    for (unsigned p : procs) {
      machine::MachineConfig cfg = base_cfg;
      cfg.nproc = p;
      jobs.emplace_back([cfg, kind, ops,
                         label = tag + " " + std::string(to_string(kind)) +
                                 " p=" + std::to_string(p)](Job& job) {
        return time_lock(job.machine(cfg, label), kind, ops);
      });
    }
  }
  const std::vector<double> cells = study.run(jobs);

  std::vector<std::string> headers{"lock \\ procs"};
  for (unsigned p : procs) headers.push_back(std::to_string(p));
  TextTable t(headers);
  std::size_t j = 0;
  for (sync::SpinLockKind kind : kinds) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (std::size_t i = 0; i < procs.size(); ++i) {
      row.push_back(TextTable::num(cells[j++], 1));
    }
    t.add_row(row);
  }
  std::cout << "\n--- " << title << " (us per lock acquire/release) ---\n";
  if (csv) {
    t.print_csv();
  } else {
    t.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ablation_spinlocks");
  const int ops = opt.quick ? 15 : 60;
  print_header("Extension: classic spin-lock alternatives on the KSR-1",
               "the Anderson [1] / MCS [13] lock studies on this machine");

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 8} : std::vector<unsigned>{1, 2, 4,
                                                                      8, 16};

  sweep(study, "KSR-1 slotted ring", "ksr", machine::MachineConfig::ksr1(16),
        procs, ops, opt.csv);
  std::cout
      << "Reading the table: once the lock saturates, per-op time grows\n"
         "with P for ANY lock (hand-offs serialize); the differentiator is\n"
         "the overhead above that floor. Naive test&set pays the most (every\n"
         "attempt is a hardware Atomic NACK storm on one hot sub-page);\n"
         "the structured locks (ticket with proportional backoff, Anderson,\n"
         "MCS queue) hand off with O(1) transactions per release.\n";

  sweep(study, "Symmetry bus", "bus", machine::MachineConfig::symmetry(16),
        procs, ops, opt.csv);
  std::cout
      << "On the bus the ticket lock closes the gap: its hot counter is\n"
         "refreshed by the bus's natural broadcast, while queue locks pay\n"
         "the same serialized transfers as everyone else.\n";
  return 0;
}
