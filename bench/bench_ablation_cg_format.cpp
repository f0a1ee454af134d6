// Reproduces the sparse-format conversion story of §3.3.1 (Figs. 6 & 7):
// the original column-start/row-index loop scatters into y and needs
// synchronization per update when parallelized by columns; converting to
// row-start/column-index gives each processor its own slice of y with no
// synchronization at all.
#include "ksr/nas/cg.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ablation_cg_format");
  print_header("Sparse matrix format: column-major + locks vs row-major",
               "Figs. 6 & 7 and the parallelisation discussion of §3.3.1");

  nas::CgConfig cfg;
  cfg.n = opt.quick ? 150 : 400;
  cfg.nnz_per_row = opt.quick ? 5 : 9;
  cfg.iterations = 2;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4} : std::vector<unsigned>{1, 2, 4, 8};

  struct Point {
    double row_t = 0, col_t = 0;
    std::uint64_t nacks = 0;
  };
  std::vector<std::function<Point(Job&)>> jobs;
  for (unsigned p : procs) {
    jobs.emplace_back([p, cfg](Job& job) {
      const auto mc = machine::MachineConfig::ksr1(p).scaled_by(64);
      const std::string ps = std::to_string(p);
      Point pt;
      pt.row_t = run_cg(job.machine(mc, "cg-rowmajor p=" + ps), cfg).seconds;
      nas::CgConfig col = cfg;
      col.format = nas::SparseFormat::kColumnMajor;
      machine::Machine& m2 = job.machine(mc, "cg-colmajor p=" + ps);
      pt.col_t = run_cg(m2, col).seconds;
      for (unsigned c = 0; c < p; ++c) pt.nacks += m2.cell_pmon(c).ring_nacks;
      return pt;
    });
  }
  const std::vector<Point> points = study.run(jobs);

  TextTable t({"procs", "row-major (s)", "column+locks (s)", "column/row",
               "lock NACKs"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const Point& pt = points[i];
    t.add_row({std::to_string(procs[i]), TextTable::num(pt.row_t, 5),
               TextTable::num(pt.col_t, 5),
               TextTable::num(pt.col_t / pt.row_t, 1) + "x",
               std::to_string(pt.nacks)});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nThe gap widens with processors: every column-format update is a\n"
           "get_subpage/release pair on a shared slice of y, and contending\n"
           "updates NACK-retry over the ring; the row format needs none.\n";
  }
  return 0;
}
