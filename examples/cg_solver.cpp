// CG solver walkthrough: generate a sparse SPD system, solve it with the
// parallel conjugate-gradient kernel on the simulated KSR-1, and compare
// both sparse-matrix formats the paper discusses (§3.3.1).
//
//   $ ./cg_solver [n] [nnz_per_row] [iterations]
#include <cstdio>
#include <stdexcept>

#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/util/parse.hpp"

int main(int argc, char** argv) try {
  using namespace ksr;  // NOLINT

  nas::CgConfig cfg;
  cfg.n = util::count_arg(argc, argv, 1, 800);
  cfg.nnz_per_row = util::count_arg(argc, argv, 2, 15);
  cfg.iterations = util::count_arg(argc, argv, 3, 6);

  // Host-side reference first: what should the residual be?
  const nas::CgResult ref = cg_reference(cfg);
  std::printf("system: n=%zu, nnz=%llu\n", cfg.n,
              static_cast<unsigned long long>(ref.nnz));
  std::printf("reference: ||r0||=%.4e -> ||r||=%.4e after %u iterations\n\n",
              ref.initial_residual, ref.final_residual, cfg.iterations);

  // Row-start / column-index format (the paper's conversion, Fig. 7):
  // each processor owns rows, no synchronization.
  std::printf("row-major format (the paper's choice):\n");
  std::printf("%8s %12s %9s %14s\n", "procs", "time (s)", "speedup",
              "residual ok?");
  double t1 = 0;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u}) {
    machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(64));
    const nas::CgResult r = run_cg(m, cfg);
    if (p == 1) t1 = r.seconds;
    const bool ok =
        std::abs(r.final_residual - ref.final_residual) <
        1e-9 * ref.initial_residual + 1e-12;
    std::printf("%8u %12.5f %9.2f %14s\n", p, r.seconds, t1 / r.seconds,
                ok ? "yes" : "NO!");
  }

  // Original column-start / row-index format: scatters into y, so every
  // update needs a sub-page lock — the reason the paper converted.
  std::printf("\ncolumn-major format (needs a lock per update):\n");
  nas::CgConfig col = cfg;
  col.format = nas::SparseFormat::kColumnMajor;
  col.n = std::min<std::size_t>(cfg.n, 300);  // locks make it slow; keep small
  col.iterations = 2;
  std::printf("%8s %12s\n", "procs", "time (s)");
  for (unsigned p : {1u, 4u}) {
    machine::KsrMachine m(machine::MachineConfig::ksr1(p).scaled_by(64));
    const nas::CgResult r = run_cg(m, col);
    std::printf("%8u %12.5f\n", p, r.seconds);
  }
  std::printf("\nThe row format wins because a distinct set of rows per\n"
              "processor lets each produce its slice of y with no\n"
              "synchronization at all (paper Section 3.3.1).\n");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "cg_solver: %s\n", e.what());
  return 1;
}
