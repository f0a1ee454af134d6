// Extension (§4, last paragraph): "The increased latency (when we cross the
// one-level ring boundary) manifests itself as a sudden jump in the
// execution time when the number of processors is increased beyond 32. The
// same trend is expected for applications that span more than 32
// processors." The paper only verified this for barriers (Fig. 5); here we
// run the CG and IS kernels across the boundary on the 64-cell KSR-2.
#include "ksr/nas/cg.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ablation_tworing");
  print_header("Extension: NAS kernels across the level-1 ring boundary",
               "the Section 4 prediction, beyond the paper's barrier data");

  nas::CgConfig cg;
  cg.n = opt.quick ? 600 : 1200;
  cg.nnz_per_row = opt.quick ? 16 : 40;
  cg.iterations = opt.quick ? 2 : 4;
  nas::IsConfig is;
  is.log2_keys = opt.quick ? 13 : 16;
  is.log2_buckets = opt.quick ? 9 : 11;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{16, 32, 48}
                : std::vector<unsigned>{16, 24, 32, 40, 48, 56, 64};

  std::vector<std::function<double(Job&)>> jobs;
  for (unsigned p : procs) {
    const auto mc = machine::MachineConfig::ksr2(p).scaled_by(64);
    const std::string ps = std::to_string(p);
    jobs.emplace_back([mc, ps, cg](Job& job) {
      return run_cg(job.machine(mc, "cg p=" + ps), cg).seconds;
    });
    jobs.emplace_back([mc, ps, is](Job& job) {
      return run_is(job.machine(mc, "is p=" + ps), is).seconds;
    });
  }
  const std::vector<double> times = study.run(jobs);

  TextTable t({"procs", "rings", "CG time (s)", "CG eff. vs 16",
               "IS time (s)", "IS eff. vs 16"});
  const double cg16 = times[0] * procs.front();
  const double is16 = times[1] * procs.front();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const unsigned p = procs[i];
    const double cg_t = times[2 * i], is_t = times[2 * i + 1];
    t.add_row({std::to_string(p), p > 32 ? "2" : "1",
               TextTable::num(cg_t, 5),
               TextTable::num(cg16 / (cg_t * p), 3),
               TextTable::num(is_t, 5),
               TextTable::num(is16 / (is_t * p), 3)});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nExpected: a visible efficiency step once p > 32 — shared reads\n"
           "and the serial sections start crossing the ARDs into the level-1\n"
           "ring, roughly doubling effective remote latency.\n";
  }
  return 0;
}
