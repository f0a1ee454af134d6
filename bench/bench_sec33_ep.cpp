// Reproduces the EP result of §3.3: "Our implementation showed linear
// speedup", with a sustained-MFLOPS estimate per processor (the paper quotes
// ~11 MFlops/cell for EP against the 40 MFlops peak).
#include "ksr/nas/ep.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "sec33_ep");
  print_header("Embarrassingly Parallel kernel scalability",
               "Section 3.3 (EP), first paragraph");

  serve::JobSpec spec;
  spec.workload = "ep";
  spec.log2_pairs = opt.quick ? 12 : 15;
  // ~50 FP operations per generated pair (transform + tally), matching the
  // instruction mix that sustains ~11 of the 40 peak MFlops per cell.
  constexpr double kFlopsPerPair = 50.0;

  nas::EpConfig cfg;
  cfg.log2_pairs = spec.log2_pairs;
  const nas::EpResult ref = nas::ep_reference(cfg);
  serve::Json ref_counts = serve::Json::array();
  for (std::uint64_t c : ref.annulus_counts) {
    ref_counts.push(serve::Json::uint(c));
  }

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 16}
                : std::vector<unsigned>{1, 2, 4, 8, 16, 32};

  // The ep row's result: seconds, and accepted and annulus_counts to check
  // against the serial host reference.
  std::vector<std::function<serve::Json(Job&)>> jobs;
  for (unsigned p : procs) {
    spec.procs = p;
    jobs.emplace_back([spec](Job& job) { return job.run(spec).result; });
  }
  const std::vector<serve::Json> results = study.run(jobs);

  TextTable t({"Processors", "Time (s)", "Speedup", "Efficiency",
               "MFLOPS/cell", "bit-identical"});
  std::vector<std::pair<unsigned, double>> measured;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const unsigned p = procs[i];
    const serve::Json& r = results[i];
    const double seconds = r.find("seconds")->as_double();
    measured.emplace_back(p, seconds);
    const bool same =
        r.find("accepted")->dump() == std::to_string(ref.accepted) &&
        r.find("annulus_counts")->dump() == ref_counts.dump();
    const double mflops = static_cast<double>(1ull << cfg.log2_pairs) *
                          kFlopsPerPair / seconds / p / 1e6;
    const study::ScalingRow row = study::scaling_rows(measured).back();
    t.add_row({std::to_string(p), TextTable::num(seconds, 5),
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
