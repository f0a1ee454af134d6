// Ablation: how the slotted ring's design parameters shape the results —
// slot count (pipelining depth) and the saturation behaviour under
// simultaneous all-remote traffic (§3.1's observation that the ring holds
// up until a fully populated ring issues simultaneous remote accesses).
#include "ksr/study/sweep.hpp"
#include "ksr/sync/barrier.hpp"

namespace {

using namespace ksr;         // NOLINT
using namespace ksr::study;  // NOLINT
using machine::Cpu;
using machine::MachineConfig;

/// All `nproc` cells stream each other's data simultaneously; returns the
/// mean per-access latency and mean slot wait.
struct Load {
  double per_access = 0;
  double wait_per_req = 0;
};

Load all_remote_load(Job& job, unsigned nproc, unsigned slots,
                     std::size_t kb) {
  MachineConfig cfg = MachineConfig::ksr1(nproc);
  cfg.ring_slots_per_subring = slots;
  machine::Machine& m = job.machine(
      cfg, "p=" + std::to_string(nproc) + " slots=" + std::to_string(slots));
  const std::size_t ints = kb * 1024 / sizeof(std::uint32_t);
  const std::size_t stride = mem::kSubPageBytes / sizeof(std::uint32_t);
  auto data =
      m.alloc<std::uint32_t>("abl.data", static_cast<std::size_t>(nproc) * ints);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  double per_access = 0;
  m.run([&](Cpu& cpu) {
    const std::size_t base = static_cast<std::size_t>(cpu.id()) * ints;
    for (std::size_t i = 0; i < ints; i += stride) {
      cpu.write(data, base + i, 1u);
    }
    barrier->arrive(cpu);
    const std::size_t nb =
        static_cast<std::size_t>((cpu.id() + 1) % nproc) * ints;
    const double t0 = cpu.seconds();
    std::size_t n = 0;
    for (std::size_t i = 0; i < ints; i += stride, ++n) {
      (void)cpu.read(data, nb + i);
    }
    if (cpu.id() == 0) {
      per_access = (cpu.seconds() - t0) / static_cast<double>(n);
    }
  });
  return {per_access, m.total_pmon().inject_wait_per_request()};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "ablation_ring");
  print_header("Ablation: ring slot count and saturation",
               "design-choice ablation for Section 3.1's network results");

  const std::size_t kb = opt.quick ? 8 : 32;
  const std::vector<unsigned> slot_counts{1, 2, 4, 8, 12, 24};  // 32 procs
  const std::vector<unsigned> proc_counts{2, 8, 16, 24, 32};    // 12 slots
  std::vector<std::function<Load(Job&)>> jobs;
  for (unsigned slots : slot_counts) {
    jobs.emplace_back([slots, kb](Job& job) {
      return all_remote_load(job, 32, slots, kb);
    });
  }
  for (unsigned p : proc_counts) {
    jobs.emplace_back(
        [p, kb](Job& job) { return all_remote_load(job, p, 12, kb); });
  }
  const std::vector<Load> loads = study.run(jobs);
  auto print = [&](const char* key, const std::vector<unsigned>& keys,
                   std::size_t first) {
    TextTable t({key, "per-access (us)", "slot wait/req (ns)"});
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Load& l = loads[first + i];
      t.add_row({std::to_string(keys[i]), TextTable::num(l.per_access * 1e6, 3),
                 TextTable::num(l.wait_per_req, 0)});
    }
    if (opt.csv) {
      t.print_csv();
    } else {
      t.print();
    }
  };

  std::cout << "\n--- slot count (pipelining depth), 32 procs all-remote ---\n";
  print("slots/subring", slot_counts, 0);
  if (!opt.csv) {
    std::cout << "Fewer slots = less pipelining: waits blow up as the 32\n"
                 "simultaneous requesters fight for slots. The production\n"
                 "value (12 per sub-ring) keeps the all-remote penalty mild\n"
                 "— the paper's ~8% rise.\n";
  }

  std::cout << "\n--- offered load vs processors (12 slots) ---\n";
  print("procs", proc_counts, slot_counts.size());
  if (!opt.csv) {
    std::cout << "The fully populated ring (32 simultaneous requesters) is\n"
                 "where waits climb — the saturation the paper blames for\n"
                 "IS's 30->32 serial-fraction step.\n";
  }
  return 0;
}
