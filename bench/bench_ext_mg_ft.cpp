// Extension: the two NAS kernels the paper did not implement (MG, FT),
// completing the five-kernel suite. Their communication characters bracket
// the paper's kernels: MG's coarse levels are latency-bound fine-grain
// synchronization (like the barrier study writ small), while FT's
// per-iteration transpose moves the whole array across the partition — a
// heavier ring load than even IS's phase 2.
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/ft.hpp"
#include "ksr/nas/mg.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "ext_mg_ft");
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

  std::vector<std::pair<unsigned, double>> mg_m, ft_m;
  std::vector<double> ft_wait;
  for (unsigned p : procs) {
    const std::string ps = std::to_string(p);
    machine::KsrMachine m1(machine::MachineConfig::ksr1(p).scaled_by(16));
    {
      ScopedObs obs(session, m1, "mg p=" + ps);
      mg_m.emplace_back(p, run_mg(m1, mg).seconds);
    }
    machine::KsrMachine m2(machine::MachineConfig::ksr1(p).scaled_by(64));
    {
      ScopedObs obs(session, m2, "ft p=" + ps);
      ft_m.emplace_back(p, run_ft(m2, ft).seconds);
    }
    cache::PerfMonitor total;
    for (unsigned c = 0; c < p; ++c) total.add(m2.cell_pmon(c));
    ft_wait.push_back(total.ring_requests
                          ? static_cast<double>(total.inject_wait_ns) /
                                static_cast<double>(total.ring_requests)
                          : 0.0);
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
               TextTable::num(ft_wait[i], 0)});
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
