// Reproduces Table 4: the SP optimization ladder at 30 processors —
// base layout -> data padding/alignment -> prefetching — plus the poststore
// experiment the paper reports as a slowdown (§3.3.3).
#include "ksr/study/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ksr;         // NOLINT
  using namespace ksr::study;  // NOLINT

  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "table4_sp_opt");
  print_header("Scalar Pentadiagonal optimization ladder (30 processors)",
               "Table 4, Section 3.3.3");

  serve::JobSpec base;
  base.workload = "sp";
  base.procs = opt.quick ? 8 : 30;
  base.scale = 16;
  base.n = opt.quick ? 16 : 32;
  base.iters = opt.quick ? 1 : 2;

  struct Variant {
    const char* name;
    const char* kind;  // the sp row's cumulative ladder
    const char* paper;
  };
  const Variant variants[] = {
      {"Base version", "", "2.54 s/iter"},
      {"Data padding and alignment", "padded", "2.14 (-15.7%)"},
      {"  + prefetching appropriate data", "padded-prefetch", "1.89 (-11.7%)"},
      {"  + poststore (pitfall)", "padded-prefetch-poststore", "slowdown"},
  };

  struct Rung {
    double seconds = 0;          // per iteration
    std::uint64_t allocs = 0;    // 2 KB sub-cache block allocations
  };
  std::vector<std::function<Rung(Job&)>> jobs;
  for (const Variant& v : variants) {
    serve::JobSpec spec = base;
    spec.kind = v.kind;
    jobs.emplace_back([spec, name = v.name](Job& job) {
      const JobRun run = job.run(spec, name);
      return Rung{run.at("seconds_per_iteration"),
                  run.machine.total_pmon().subcache_block_allocs};
    });
  }
  const std::vector<Rung> rungs = study.run(jobs);

  TextTable t({"Optimization", "Time per iteration (s)", "vs previous",
               "paper (64^3, 30 procs)"});
  double prev = 0;
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const Variant& v = variants[i];
    const Rung& r = rungs[i];
    std::string delta = "-";
    if (prev > 0) {
      delta = TextTable::num((1.0 - r.seconds / prev) * 100.0, 1) + "%";
    }
    t.add_row({v.name, TextTable::num(r.seconds, 5), delta, v.paper});
    prev = r.seconds;
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout
        << "\nMechanism check: 2 KB sub-cache block allocations fell from "
        << rungs[0].allocs << " (base)\nto " << rungs[1].allocs
        << " (padded) — the random-replacement thrash the paper found\nwith"
           " the hardware monitor and fixed by data re-organisation. The\n"
           "poststore row should be SLOWER than its predecessor: the next\n"
           "phase writes the same sub-pages and must re-invalidate all the\n"
           "copies poststore just distributed.\n";
  }
  return 0;
}
