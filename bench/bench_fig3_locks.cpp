// Reproduces Fig. 3 ("Performance of locks"): time for each processor to
// complete a fixed number of lock operations under the paper's synthetic
// workload — hardware exclusive lock vs. the software read-write ticket
// lock at varying read-sharing percentages.
//
// Workload (paper footnote 4): each processor repeatedly accesses data in
// read or write mode with a delay of 10000 local operations between
// successive lock requests; the lock is held for 3000 local operations.
//
// Each (P, variant) cell is an independent simulation — one SweepRunner job
// per cell, merged in submission order.
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/sync/locks.hpp"

namespace {

using namespace ksr;         // NOLINT
using namespace ksr::bench;  // NOLINT
using machine::Cpu;
using machine::KsrMachine;
using machine::MachineConfig;

constexpr std::uint64_t kHoldOps = 3000;   // local ops while holding
constexpr std::uint64_t kDelayOps = 10000; // local ops between requests
constexpr std::uint64_t kCyclesPerOp = 2;

struct Run {
  double seconds = 0.0;
  obs::JobObs obs;
};

Run run_exclusive(const obs::Session& session, unsigned nproc, int ops) {
  KsrMachine m(MachineConfig::ksr1(nproc));
  Run r;
  r.obs = session.job();
  r.obs.attach(m);
  sync::HardwareLock lock(m);
  double t = 0;
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < ops; ++i) {
      lock.acquire(cpu);
      cpu.work(kHoldOps * kCyclesPerOp);
      lock.release(cpu);
      cpu.work(kDelayOps * kCyclesPerOp);
    }
    if (cpu.seconds() > t) t = cpu.seconds();
  });
  r.obs.finish();
  r.seconds = t;
  return r;
}

Run run_rw(const obs::Session& session, unsigned nproc, int ops,
           unsigned read_percent) {
  KsrMachine m(MachineConfig::ksr1(nproc));
  Run r;
  r.obs = session.job();
  r.obs.attach(m);
  sync::TicketRwLock lock(m);
  double t = 0;
  m.run([&](Cpu& cpu) {
    for (int i = 0; i < ops; ++i) {
      const bool read = cpu.rng().below(100) < read_percent;
      if (read) {
        lock.acquire_read(cpu);
        cpu.work(kHoldOps * kCyclesPerOp);
        lock.release_read(cpu);
      } else {
        lock.acquire_write(cpu);
        cpu.work(kHoldOps * kCyclesPerOp);
        lock.release_write(cpu);
      }
      cpu.work(kDelayOps * kCyclesPerOp);
    }
    if (cpu.seconds() > t) t = cpu.seconds();
  });
  r.obs.finish();
  r.seconds = t;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "fig3_locks");
  SweepRunner runner(opt.jobs);
  // Paper: "for 500 operations". Scaled default keeps the event count sane;
  // --full uses the paper's 500.
  const int ops = opt.full ? 500 : (opt.quick ? 25 : 40);

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

  std::vector<std::function<Run()>> jobs;
  jobs.reserve(procs.size() * (1 + read_pcts.size()));
  for (unsigned p : procs) {
    jobs.emplace_back(
        [p, ops, &session] { return run_exclusive(session, p, ops); });
    for (unsigned rd : read_pcts) {
      jobs.emplace_back(
          [p, ops, rd, &session] { return run_rw(session, p, ops, rd); });
    }
  }
  std::vector<Run> cells = runner.run(jobs);

  std::size_t j = 0;
  for (unsigned p : procs) {
    std::vector<std::string> row{std::to_string(p)};
    if (session.active()) {
      session.collect(std::move(cells[j].obs),
                      "exclusive p=" + std::to_string(p));
    }
    row.push_back(TextTable::num(cells[j++].seconds, 4));
    for (unsigned rd : read_pcts) {
      if (session.active()) {
        session.collect(std::move(cells[j].obs),
                        "rw" + std::to_string(rd) + " p=" + std::to_string(p));
      }
      row.push_back(TextTable::num(cells[j++].seconds, 4));
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
