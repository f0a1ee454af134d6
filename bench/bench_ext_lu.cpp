// Extension: the LU (SSOR) application — the third NAS application — whose
// Gauss-Seidel dependences force a 2-D software pipeline instead of
// barrier-split phases. The hand-off rate (one flag per processor per
// plane per sweep) makes it the finest-grain synchronization workload in
// the suite; poststore on the single-reader pipeline flags is the textbook
// GOOD use of the primitive, complementing SP's poststore pitfall.
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/lu.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "ext_lu");
  print_header("Extension: LU (SSOR) application scalability",
               "the third NAS application; pipelined wavefront structure");

  nas::LuConfig cfg;
  cfg.n = opt.quick ? 8 : 16;
  cfg.iterations = opt.quick ? 1 : 2;
  const unsigned scale = 16;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4, 8}
                : std::vector<unsigned>{1, 2, 4, 8, 16};

  std::vector<std::pair<unsigned, double>> measured;
  std::vector<double> no_post;
  for (unsigned p : procs) {
    const std::string ps = std::to_string(p);
    machine::KsrMachine m1(machine::MachineConfig::ksr1(p).scaled_by(scale));
    {
      ScopedObs obs(session, m1, "lu p=" + ps);
      measured.emplace_back(p, run_lu(m1, cfg).seconds_per_iteration);
    }
    nas::LuConfig c2 = cfg;
    c2.use_poststore = false;
    machine::KsrMachine m2(machine::MachineConfig::ksr1(p).scaled_by(scale));
    {
      ScopedObs obs(session, m2, "lu-nopoststore p=" + ps);
      no_post.push_back(run_lu(m2, c2).seconds_per_iteration);
    }
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
