// Reproduces Table 4: the SP optimization ladder at 30 processors —
// base layout -> data padding/alignment -> prefetching — plus the poststore
// experiment the paper reports as a slowdown (§3.3.3).
#include "ksr/nas/sp.hpp"
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "table4_sp_opt");
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

  struct Rung {
    double seconds = 0;          // per iteration
    std::uint64_t allocs = 0;    // 2 KB sub-cache block allocations
  };
  std::vector<std::function<Rung(Job&)>> jobs;
  for (const Variant& v : variants) {
    nas::SpConfig cfg = base;
    cfg.padded_layout = v.padded;
    cfg.use_prefetch = v.prefetch;
    cfg.use_poststore = v.poststore;
    jobs.emplace_back([nproc, scale, cfg, name = v.name](Job& job) {
      machine::Machine& m = job.machine(
          machine::MachineConfig::ksr1(nproc).scaled_by(scale), name);
      Rung r{run_sp(m, cfg).seconds_per_iteration};
      for (unsigned i = 0; i < nproc; ++i) {
        r.allocs += m.cell_pmon(i).subcache_block_allocs;
      }
      return r;
    });
  }
  const std::vector<Rung> rungs = study.run(jobs);

  TextTable t({"Optimization", "Time per iteration (s)", "vs previous",
               "paper (64^3, 30 procs)"});
  double prev = 0;
  std::uint64_t base_allocs = 0, padded_allocs = 0;
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const Variant& v = variants[i];
    const Rung& r = rungs[i];
    std::string delta = "-";
    if (prev > 0) {
      delta = TextTable::num((1.0 - r.seconds / prev) * 100.0, 1) + "%";
    }
    if (!v.padded) base_allocs = r.allocs;
    if (v.padded && !v.prefetch && !v.poststore) padded_allocs = r.allocs;
    t.add_row({v.name, TextTable::num(r.seconds, 5), delta, v.paper});
    prev = r.seconds;
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
