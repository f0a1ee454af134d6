// Extension: the LU (SSOR) application — the third NAS application — whose
// Gauss-Seidel dependences force a 2-D software pipeline instead of
// barrier-split phases. The hand-off rate (one flag per processor per
// plane per sweep) makes it the finest-grain synchronization workload in
// the suite; poststore on the single-reader pipeline flags is the textbook
// GOOD use of the primitive, complementing SP's poststore pitfall.
#include "ksr/nas/lu.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ext_lu");
  print_header("Extension: LU (SSOR) application scalability",
               "the third NAS application; pipelined wavefront structure");

  nas::LuConfig cfg;
  cfg.n = opt.quick ? 8 : 16;
  cfg.iterations = opt.quick ? 1 : 2;
  const unsigned scale = 16;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16};

  nas::LuConfig no_post_cfg = cfg;
  no_post_cfg.use_poststore = false;
  std::vector<std::function<double(Job&)>> jobs;
  for (unsigned p : procs) {
    const auto mc = machine::MachineConfig::ksr1(p).scaled_by(scale);
    const std::string ps = std::to_string(p);
    jobs.emplace_back([mc, ps, cfg](Job& job) {
      return run_lu(job.machine(mc, "lu p=" + ps), cfg).seconds_per_iteration;
    });
    jobs.emplace_back([mc, ps, no_post_cfg](Job& job) {
      return run_lu(job.machine(mc, "lu-nopoststore p=" + ps), no_post_cfg)
          .seconds_per_iteration;
    });
  }
  const std::vector<double> times = study.run(jobs);
  std::vector<std::pair<unsigned, double>> measured;
  std::vector<double> no_post;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    measured.emplace_back(procs[i], times[2 * i]);
    no_post.push_back(times[2 * i + 1]);
  }

  TextTable t({"procs", "t/iter (s)", "speedup", "no-poststore (s)",
               "poststore gain"});
  const auto rows = study::scaling_rows(measured);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.add_row({std::to_string(rows[i].p),
               TextTable::num(rows[i].seconds, 5),
               TextTable::num(rows[i].speedup, 2),
               TextTable::num(no_post[i], 5),
               TextTable::num((1.0 - rows[i].seconds / no_post[i]) * 100.0,
                              2) +
                   "%"});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nReading the table: speedup below the barrier-phased kernels is\n"
           "inherent (pipeline fill/drain), and the poststore column is the\n"
           "counterpoint to SP's Table 4 pitfall — pushing a single-reader\n"
           "pipeline flag to its one waiter is what the primitive is FOR.\n";
  }
  return 0;
}
