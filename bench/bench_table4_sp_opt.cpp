// Reproduces Table 4: the SP optimization ladder at 30 processors —
// base layout -> data padding/alignment -> prefetching — plus the poststore
// experiment the paper reports as a slowdown (§3.3.3).
#include "bench_common.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/sp.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::bench;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  obs::Session session(opt.obs, "table4_sp_opt");
  print_header("Scalar Pentadiagonal optimization ladder (30 processors)",
               "Table 4, Section 3.3.3");

  const unsigned nproc = opt.quick ? 8 : 30;
  const unsigned scale = 16;
  nas::SpConfig base;
  base.n = opt.quick ? 16 : 32;
  base.iterations = opt.quick ? 1 : 2;

  struct Variant {
    const char* name;
    bool padded;
    bool prefetch;
    bool poststore;
    const char* paper;
  };
  const Variant variants[] = {
      {"Base version", false, false, false, "2.54 s/iter"},
      {"Data padding and alignment", true, false, false, "2.14 (-15.7%)"},
      {"  + prefetching appropriate data", true, true, false, "1.89 (-11.7%)"},
      {"  + poststore (pitfall)", true, true, true, "slowdown"},
  };

  TextTable t({"Optimization", "Time per iteration (s)", "vs previous",
               "paper (64^3, 30 procs)"});
  double prev = 0;
  std::uint64_t base_allocs = 0, padded_allocs = 0;
  for (const Variant& v : variants) {
    nas::SpConfig cfg = base;
    cfg.padded_layout = v.padded;
    cfg.use_prefetch = v.prefetch;
    cfg.use_poststore = v.poststore;
    machine::KsrMachine m(machine::MachineConfig::ksr1(nproc).scaled_by(scale));
    nas::SpResult r;
    {
      ScopedObs obs(session, m, v.name);
      r = run_sp(m, cfg);
    }
    std::string delta = "-";
    if (prev > 0) {
      delta = TextTable::num((1.0 - r.seconds_per_iteration / prev) * 100.0, 1) +
              "%";
    }
    std::uint64_t allocs = 0;
    for (unsigned i = 0; i < nproc; ++i) {
      allocs += m.cell_pmon(i).subcache_block_allocs;
    }
    if (!v.padded) base_allocs = allocs;
    if (v.padded && !v.prefetch && !v.poststore) padded_allocs = allocs;
    t.add_row({v.name, TextTable::num(r.seconds_per_iteration, 5), delta,
               v.paper});
    prev = r.seconds_per_iteration;
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nMechanism check: 2 KB sub-cache block allocations fell from "
        << base_allocs << " (base)\nto " << padded_allocs
        << " (padded) — the random-replacement thrash the paper found\nwith"
           " the hardware monitor and fixed by data re-organisation. The\n"
           "poststore row should be SLOWER than its predecessor: the next\n"
           "phase writes the same sub-pages and must re-invalidate all the\n"
           "copies poststore just distributed.\n";
  }
  return 0;
}
