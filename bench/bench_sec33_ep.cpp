// Reproduces the EP result of §3.3: "Our implementation showed linear
// speedup", with a sustained-MFLOPS estimate per processor (the paper quotes
// ~11 MFlops/cell for EP against the 40 MFlops peak).
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/ep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "sec33_ep");
  print_header("Embarrassingly Parallel kernel scalability",
               "Section 3.3 (EP), first paragraph");

  nas::EpConfig cfg;
  cfg.log2_pairs = opt.quick ? 12 : 15;
  // ~50 FP operations per generated pair (transform + tally), matching the
  // instruction mix that sustains ~11 of the 40 peak MFlops per cell.
  constexpr double kFlopsPerPair = 50.0;

  const nas::EpResult ref = nas::ep_reference(cfg);

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 16}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 32};

  TextTable t({"Processors", "Time (s)", "Speedup", "Efficiency",
               "MFLOPS/cell", "bit-identical"});
  std::vector<std::pair<unsigned, double>> measured;
  for (unsigned p : procs) {
    machine::KsrMachine m(machine::MachineConfig::ksr1(p));
    ScopedObs obs(session, m, "ep p=" + std::to_string(p));
    const nas::EpResult r = run_ep(m, cfg);
    measured.emplace_back(p, r.seconds);
    const bool same = r.accepted == ref.accepted &&
                      r.annulus_counts == ref.annulus_counts;
    const double mflops = static_cast<double>(1ull << cfg.log2_pairs) *
                          kFlopsPerPair / r.seconds / p / 1e6;
    const auto& row = study::scaling_rows(measured).back();
    t.add_row({std::to_string(p), TextTable::num(r.seconds, 5),
               TextTable::num(row.speedup, 3),
               p == 1 ? "-" : TextTable::num(row.efficiency, 3),
               TextTable::num(mflops, 1), same ? "yes" : "NO!"});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout << "\nPaper: linear speedup ('this result was not surprising'),\n"
                 "~11 MFlops sustained per 40-MFlops cell.\n";
  }
  return 0;
}
