// Ablation: the coherence-protocol features the paper leans on —
// read-snarfing (on/off) for the hot-spot barriers, poststore (on/off) for
// the global-wakeup-flag barriers, and the cost of intentional false
// sharing (the MCS packed word vs a padded variant).
#include "ksr/study/sweep.hpp"
#include "ksr/sync/atomic.hpp"
#include "ksr/sync/padded.hpp"

namespace {

using namespace ksr;         // NOLINT
using namespace ksr::study;  // NOLINT
using machine::Cpu;
using machine::MachineConfig;

struct BarrierCost {
  double seconds = 0;        // per episode
  double ring_requests = 0;  // machine-wide transactions per episode
};

BarrierCost barrier_cost(machine::Machine& m, sync::BarrierKind kind,
                         bool use_poststore, int episodes) {
  auto barrier = sync::make_barrier(m, kind, use_poststore);
  double t = 0;
  std::uint64_t req0 = 0;
  std::uint64_t req1 = 0;
  m.run([&](Cpu& cpu) {
    barrier->arrive(cpu);
    if (cpu.id() == 0) {
      for (unsigned c = 0; c < cpu.nproc(); ++c) {
        req0 += m.cell_pmon(c).ring_requests;
      }
    }
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    if (cpu.seconds() - t0 > t) t = cpu.seconds() - t0;
  });
  for (unsigned c = 0; c < m.nproc(); ++c) {
    req1 += m.cell_pmon(c).ring_requests;
  }
  return {t / episodes,
          static_cast<double>(req1 - req0) / episodes};
}

/// One on/off table: each kind's barrier cost under the `on` and `off`
/// machine config and poststore setting, one job per run.
void on_off_table(Study& study, const std::vector<sync::BarrierKind>& kinds,
                  const std::string& knob, const MachineConfig& on,
                  const MachineConfig& off, bool poststore_off,
                  int episodes, bool csv) {
  std::vector<std::function<BarrierCost(Job&)>> jobs;
  for (sync::BarrierKind kind : kinds) {
    const std::string ks(to_string(kind));
    jobs.emplace_back([=](Job& job) {
      return barrier_cost(job.machine(on, ks + " " + knob + "=on"), kind, true,
                          episodes);
    });
    jobs.emplace_back([=](Job& job) {
      return barrier_cost(job.machine(off, ks + " " + knob + "=off"), kind,
                          poststore_off, episodes);
    });
  }
  const std::vector<BarrierCost> c = study.run(jobs);
  TextTable t({"barrier", "ON (us)", "OFF (us)", "ON ring tx/ep",
               "OFF ring tx/ep"});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const BarrierCost& c_on = c[2 * i];
    const BarrierCost& c_off = c[2 * i + 1];
    t.add_row({std::string(to_string(kinds[i])),
               TextTable::num(c_on.seconds * 1e6, 1),
               TextTable::num(c_off.seconds * 1e6, 1),
               TextTable::num(c_on.ring_requests, 0),
               TextTable::num(c_off.ring_requests, 0)});
  }
  if (csv) {
    t.print_csv();
  } else {
    t.print();
  }
}

/// False-sharing microbenchmark: 4 writers update bytes that either share
/// one sub-page (packed, as in the MCS arrival word) or sit on their own
/// sub-pages (padded). On an invalidation protocol each packed write costs
/// a ring transaction (§3.2.2: "the cost of the communication is at least
/// quadrupled").
void false_sharing(Study& study, const BenchOptions& opt) {
  const int reps = opt.quick ? 50 : 300;
  std::vector<std::function<double(Job&)>> jobs;
  for (bool packed : {true, false}) {
    jobs.emplace_back([packed, reps](Job& job) {
      machine::Machine& m = job.machine(MachineConfig::ksr1(4),
                                        packed ? "fs-packed" : "fs-padded");
      auto arr = m.alloc<std::uint8_t>("fs", 4 * mem::kSubPageBytes);
      double t = 0;
      m.run([&](Cpu& cpu) {
        const std::size_t idx = packed
                                    ? cpu.id()
                                    : static_cast<std::size_t>(cpu.id()) *
                                          mem::kSubPageBytes;
        const double t0 = cpu.seconds();
        for (int i = 0; i < reps; ++i) {
          cpu.write(arr, idx, static_cast<std::uint8_t>(i));
          cpu.work(50);
        }
        if (cpu.seconds() - t0 > t) t = cpu.seconds() - t0;
      });
      return t / reps;
    });
  }
  const std::vector<double> per_write = study.run(jobs);
  const double packed = per_write[0];
  const double padded = per_write[1];
  TextTable t({"layout", "per-write (us)", "ratio"});
  t.add_row({"4 bytes packed in one sub-page (MCS word)",
             TextTable::num(packed * 1e6, 3),
             TextTable::num(packed / padded, 1) + "x"});
  t.add_row({"one byte per sub-page (padded)", TextTable::num(padded * 1e6, 3),
             "1.0x"});
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ablation_coherence");
  const int episodes = opt.quick ? 5 : 20;
  print_header("Ablation: read-snarfing, poststore and false sharing",
               "mechanism checks for Sections 2, 3.2.2 and 3.3.3");

  std::cout << "\n--- read-snarfing (16 procs) ---\n";
  const MachineConfig ksr16 = MachineConfig::ksr1(16);
  MachineConfig no_snarf = ksr16;
  no_snarf.read_snarfing = false;
  on_off_table(study,
               {sync::BarrierKind::kCounter, sync::BarrierKind::kTreeM,
                sync::BarrierKind::kTournamentM},
               "snarf", ksr16, no_snarf, true, episodes, opt.csv);
  if (!opt.csv) {
    std::cout << "Snarfing lets ONE re-read refresh every spinner's"
                 " placeholder.\nOn a lightly loaded ring the spinners'"
                 " separate fetches pipeline,\nso the big win is in ring"
                 " *traffic* (transactions per episode),\nwhich is exactly"
                 " the headroom that matters once applications load\nthe"
                 " ring (the IS saturation effect).\n";
  }

  std::cout << "\n--- poststore assist on wake-up flags (16 procs) ---\n";
  on_off_table(study,
               {sync::BarrierKind::kTreeM, sync::BarrierKind::kTournamentM,
                sync::BarrierKind::kMcsM},
               "poststore", ksr16, ksr16, false, episodes, opt.csv);
  if (!opt.csv) {
    std::cout << "The paper: 'Read-snarfing is further aided by the use of\n"
                 "poststore in our implementation of these algorithms.'\n";
  }

  std::cout << "\n--- intentional false sharing (the MCS arrival word) ---\n";
  false_sharing(study, opt);
  return 0;
}
