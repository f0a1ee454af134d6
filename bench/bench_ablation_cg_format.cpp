// Reproduces the sparse-format conversion story of §3.3.1 (Figs. 6 & 7):
// the original column-start/row-index loop scatters into y and needs
// synchronization per update when parallelized by columns; converting to
// row-start/column-index gives each processor its own slice of y with no
// synchronization at all.
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/cg.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "ablation_cg_format");
  print_header("Sparse matrix format: column-major + locks vs row-major",
               "Figs. 6 & 7 and the parallelisation discussion of §3.3.1");

  nas::CgConfig cfg;
  cfg.n = opt.quick ? 150 : 400;
  cfg.nnz_per_row = opt.quick ? 5 : 9;
  cfg.iterations = 2;

  const std::vector<unsigned> procs =
      opt.quick ? std::vector<unsigned>{1, 4} : std::vector<unsigned>{1, 2, 4, 8};

  TextTable t({"procs", "row-major (s)", "column+locks (s)", "column/row",
               "lock NACKs"});
  for (unsigned p : procs) {
    const std::string ps = std::to_string(p);
    machine::KsrMachine m1(machine::MachineConfig::ksr1(p).scaled_by(64));
    double row_t = 0;
    {
      ScopedObs obs(session, m1, "cg-rowmajor p=" + ps);
      row_t = run_cg(m1, cfg).seconds;
    }

    nas::CgConfig col = cfg;
    col.format = nas::SparseFormat::kColumnMajor;
    machine::KsrMachine m2(machine::MachineConfig::ksr1(p).scaled_by(64));
    double col_t = 0;
    {
      ScopedObs obs(session, m2, "cg-colmajor p=" + ps);
      col_t = run_cg(m2, col).seconds;
    }
    std::uint64_t nacks = 0;
    for (unsigned c = 0; c < p; ++c) nacks += m2.cell_pmon(c).ring_nacks;

    t.add_row({std::to_string(p), TextTable::num(row_t, 5),
               TextTable::num(col_t, 5), TextTable::num(col_t / row_t, 1) + "x",
               std::to_string(nacks)});
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
