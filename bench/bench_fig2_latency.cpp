// Reproduces Fig. 2 ("Read/Write Latencies on the KSR") and the §3.1 stride
// experiments: local-cache and network read/write latency as a function of
// the number of processors simultaneously accessing remote data, plus the
// 2 KB block- and 16 KB page-allocation overheads.
#include <cstdint>

#include "ksr/study/sweep.hpp"
#include "ksr/sync/atomic.hpp"

namespace {

using namespace ksr;           // NOLINT
using namespace ksr::study;    // NOLINT
using machine::Cpu;
using machine::MachineConfig;

struct LatencyPoint {
  double local_read = 0, local_write = 0;
  double net_read = 0, net_write = 0;
};

/// All P processors first cache private data, then simultaneously access
/// their ring neighbour's data (the paper's experiment; footnote 3: any
/// remote node costs the same on a unidirectional ring).
LatencyPoint measure(machine::Machine& m, unsigned nproc,
                     std::size_t kb_per_cpu) {
  const std::size_t ints = kb_per_cpu * 1024 / sizeof(std::uint32_t);
  const std::size_t stride = mem::kSubPageBytes / sizeof(std::uint32_t);
  auto data = m.alloc<std::uint32_t>(
      "lat.data", static_cast<std::size_t>(m.nproc()) * ints);
  // The paper's A/B pair for the local-cache measurement: both 1 MB —
  // resident in the 32 MB local cache, far too big for the 256 KB sub-cache.
  const std::size_t big = (1u << 20) / sizeof(std::uint32_t);
  auto big_a = m.alloc<std::uint32_t>("lat.A", big);
  auto big_b = m.alloc<std::uint32_t>("lat.B", big);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);

  LatencyPoint pt;
  m.run([&](Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t base = static_cast<std::size_t>(me) * ints;
    const bool active = me < nproc;
    constexpr std::size_t kSub = mem::kSubBlockBytes / sizeof(std::uint32_t);

    // Everyone caches its own slice (and pre-allocates pages).
    for (std::size_t i = 0; i < ints; i += stride) {
      cpu.write(data, base + i, static_cast<std::uint32_t>(i));
    }
    barrier->arrive(cpu);

    // --- Local-cache latency, cell 0 (the paper's A/B method): touch A,
    // fill the sub-cache with B (repeatedly — replacement is random), then
    // time strided accesses to A: sub-cache misses, local-cache hits.
    if (me == 0) {
      for (std::size_t i = 0; i < big; i += kSub) (void)cpu.read(big_a, i);
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < big; i += kSub) (void)cpu.read(big_b, i);
      }
      double t0 = cpu.seconds();
      std::size_t n = 0;
      for (std::size_t i = 0; i < big; i += kSub, ++n) {
        (void)cpu.read(big_a, i);
      }
      pt.local_read = (cpu.seconds() - t0) / static_cast<double>(n);
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < big; i += kSub) (void)cpu.read(big_b, i);
      }
      t0 = cpu.seconds();
      for (std::size_t i = 0; i < big; i += kSub) {
        cpu.write(big_a, i, 2u);
      }
      pt.local_write = (cpu.seconds() - t0) / static_cast<double>(n);
    }
    barrier->arrive(cpu);
    if (nproc < 2) return;

    // --- Network read: everyone reads its neighbour's slice at once, with
    // small per-iteration jitter so request arrivals are not in artificial
    // lockstep (the real machine's loop overheads differ per cell).
    if (active) {
      const std::size_t nb = static_cast<std::size_t>((me + 1) % nproc) * ints;
      const double t0 = cpu.seconds();
      sim::Duration jitter = 0;
      std::size_t n = 0;
      for (std::size_t i = 0; i < ints; i += stride, ++n) {
        (void)cpu.read(data, nb + i);
        const auto j = cpu.rng().below(16);
        jitter += j * 50;
        cpu.work(j);
      }
      const double nr =
          (cpu.seconds() - t0 - static_cast<double>(jitter) * 1e-9) /
          static_cast<double>(n);
      if (me == 0) pt.net_read = nr;
    }
    barrier->arrive(cpu);

    // --- Network write: distinct data per writer (no false sharing).
    if (active) {
      const std::size_t nb =
          static_cast<std::size_t>((me + nproc - 1) % nproc) * ints;
      const double t0 = cpu.seconds();
      sim::Duration jitter = 0;
      std::size_t n = 0;
      for (std::size_t i = 0; i < ints; i += stride, ++n) {
        cpu.write(data, nb + i, 7u);
        const auto j = cpu.rng().below(16);
        jitter += j * 50;
        cpu.work(j);
      }
      const double nw =
          (cpu.seconds() - t0 - static_cast<double>(jitter) * 1e-9) /
          static_cast<double>(n);
      if (me == 0) pt.net_write = nw;
    }
    barrier->arrive(cpu);
  });
  return pt;
}

// §3.1: striding one access per 2 KB block costs ~50% more (sub-cache
// block allocation); one access per 16 KB page adds ~60% at ring level.
struct Stride {
  double dense = 0, blocky = 0, net_dense = 0, net_page = 0;
};

Stride stride_experiments(Job& job, std::size_t doubles) {
  double dense = 0, blocky = 0, net_dense = 0, net_page = 0;
  // Page-allocation overhead measured directly on a cold machine (built
  // first: its trace section has always preceded the warm machine's).
  machine::Machine& m2 =
      job.machine(MachineConfig::ksr1(2), "stride-pagealloc");
  auto arr2 = m2.alloc<double>("stride2", doubles);
  auto flag = m2.alloc<int>("flag2", 1);
  m2.run([&](machine::Cpu& cpu) {
    constexpr std::size_t kSp = mem::kSubPageBytes / sizeof(double);
    constexpr std::size_t kPg = mem::kPageBytes / sizeof(double);
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < doubles; i += kSp) cpu.write(arr2, i, 1.0);
      cpu.write(flag, 0, 1);
    } else {
      sync::spin_until(cpu, [&] { return cpu.read(flag, 0) == 1; });
      const double t0 = cpu.seconds();
      std::size_t n = 0;
      for (std::size_t i = 0; i < doubles; i += kPg, ++n) {
        (void)cpu.read(arr2, i);  // every access: page alloc + remote fetch
      }
      net_page = (cpu.seconds() - t0) / static_cast<double>(n);
    }
  });

  machine::Machine& m = job.machine(MachineConfig::ksr1(2), "stride");
  auto arr = m.alloc<double>("stride", doubles);
  auto remote = m.alloc<double>("stride.r", doubles);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  m.run([&](machine::Cpu& cpu) {
    constexpr std::size_t kSub = mem::kSubBlockBytes / sizeof(double);
    constexpr std::size_t kBlk = mem::kBlockBytes / sizeof(double);
    constexpr std::size_t kSp = mem::kSubPageBytes / sizeof(double);
    constexpr std::size_t kPg = mem::kPageBytes / sizeof(double);
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < doubles; i += kSub) (void)cpu.read(arr, i);
      double t0 = cpu.seconds();
      std::size_t n = 0;
      for (std::size_t i = 0; i < doubles; i += kSub, ++n) {
        (void)cpu.read(arr, i);
      }
      dense = (cpu.seconds() - t0) / static_cast<double>(n);
      t0 = cpu.seconds();
      n = 0;
      for (std::size_t i = 0; i < doubles; i += kBlk, ++n) {
        (void)cpu.read(arr, i);
      }
      blocky = (cpu.seconds() - t0) / static_cast<double>(n);
      // Own the remote array on cell 0.
      for (std::size_t i = 0; i < doubles; i += kSp) cpu.write(remote, i, 1.0);
    }
    barrier->arrive(cpu);
    if (cpu.id() == 1) {
      // Sub-page stride within pre-allocated pages vs page stride (every
      // access allocates a 16 KB page frame).
      for (std::size_t i = 0; i < doubles; i += kPg) (void)cpu.read(remote, i);
      double t0 = cpu.seconds();
      std::size_t n = 0;
      for (std::size_t i = kSp; i < doubles; i += kSp, ++n) {
        (void)cpu.read(remote, i);
      }
      net_dense = (cpu.seconds() - t0) / static_cast<double>(n);
    }
    barrier->arrive(cpu);
    if (cpu.id() == 1) {
      // Fresh machine state is not needed: touch NEW pages of the big array
      // at page stride, each causing page allocation + remote fetch.
      const double t0 = cpu.seconds();
      std::size_t n = 0;
      for (std::size_t i = kPg / 2; i < doubles; i += kPg, ++n) {
        (void)cpu.read(remote, i);  // sub-page not yet resident; page warm
      }
      const double warm = (cpu.seconds() - t0) / static_cast<double>(n);
      (void)warm;  // with page warm this approximates dense; see above
    }
    barrier->arrive(cpu);
  });
  return {dense, blocky, net_dense, net_page};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  Study study(opt, "fig2_latency");
  print_header("Read/Write latencies vs processors",
               "Fig. 2 and the stride experiments of Section 3.1");

  const std::size_t kb = opt.quick ? 16 : 64;
  const std::size_t doubles = (opt.quick ? 1u : 4u) * 1024 * 1024 / 8;
  const std::vector<unsigned> procs{1, 2, 4, 8, 12, 16, 20, 24, 28, 32};
  std::vector<std::function<LatencyPoint(Job&)>> jobs;
  for (unsigned p : procs) {
    jobs.emplace_back([p, kb](Job& job) {
      return measure(job.machine(MachineConfig::ksr1(std::max(p, 2u)),
                                 "latency p=" + std::to_string(p)),
                     p, kb);
    });
  }
  const std::vector<LatencyPoint> points = study.run(jobs);
  const Stride st = study.run<Stride>({[doubles](Job& job) {
    return stride_experiments(job, doubles);
  }})[0];

  TextTable t({"procs", "local rd (us)", "local wr (us)", "net rd (us)",
               "net wr (us)", "net rd (cycles)"});
  double net_read_p2 = 0;
  double net_read_p32 = 0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const unsigned p = procs[i];
    const LatencyPoint& pt = points[i];
    if (p == 2) net_read_p2 = pt.net_read;
    if (p == 32) net_read_p32 = pt.net_read;
    t.add_row({std::to_string(p), TextTable::num(pt.local_read * 1e6, 3),
               TextTable::num(pt.local_write * 1e6, 3),
               TextTable::num(pt.net_read * 1e6, 3),
               TextTable::num(pt.net_write * 1e6, 3),
               TextTable::num(pt.net_read / 50e-9, 1)});
  }
  if (opt.csv) {
    t.print_csv();
  } else {
    t.print();
    std::cout << "\nPaper expectations: sub-cache 2 cycles; local cache ~18/20"
                 " cycles;\nnetwork ~175 cycles with a mild (~8%) rise by 32"
                 " processors.\nMeasured rise 2->32 procs: "
              << TextTable::num(
                     net_read_p2 > 0
                         ? (net_read_p32 / net_read_p2 - 1.0) * 100.0
                         : 0,
                     1)
              << "%\n\n";
  }

  TextTable ts({"access pattern", "per-access (us)", "vs dense", "paper"});
  ts.add_row({"local, sub-block stride (dense)",
              TextTable::num(st.dense * 1e6, 3), "1.00x",
              "18 cycles = 0.90 us"});
  ts.add_row({"local, 2KB-block stride (allocs)",
              TextTable::num(st.blocky * 1e6, 3),
              TextTable::num(st.blocky / st.dense, 2) + "x", "+~50%"});
  ts.add_row({"remote, sub-page stride (pages warm)",
              TextTable::num(st.net_dense * 1e6, 3), "1.00x",
              "175 cycles = 8.75 us"});
  ts.add_row({"remote, 16KB-page stride (allocs)",
              TextTable::num(st.net_page * 1e6, 3),
              TextTable::num(st.net_page / st.net_dense, 2) + "x", "+~60%"});
  if (opt.csv) {
    ts.print_csv();
  } else {
    ts.print();
  }
  return 0;
}
