// Host-side performance of the simulator itself (google-benchmark): event
// dispatch rate, cache-model access path, ring transactions, and a whole
// barrier episode. These are real wall-clock measurements (unlike the
// paper-table binaries, which report simulated seconds).
#include <benchmark/benchmark.h>

#include <array>

#include "ksr/cache/local_cache.hpp"
#include "ksr/cache/subcache.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/net/ring.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/parallel_engine.hpp"
#include "ksr/sync/barrier.hpp"

namespace {

using namespace ksr;  // NOLINT

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      eng.at(static_cast<sim::Time>(i), [&sink] { ++sink; });
    }
    eng.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventDispatch);

// One fiber on an empty queue: every wait_until resumes the fiber itself,
// so this measures the self path (no context switch at all).
void BM_FiberSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn([&eng] {
      for (int i = 0; i < 1000; ++i) eng.wait_until(eng.now() + 1);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FiberSwitch);

// N fibers stepping in lockstep: each wait_until(now() + 1) parks behind the
// other fibers' resume events, so every yield hands off fiber to fiber.
void BM_FiberHandoff(benchmark::State& state) {
  const auto fibers = static_cast<int>(state.range(0));
  constexpr int kSteps = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    for (int f = 0; f < fibers; ++f) {
      eng.spawn([&eng] {
        for (int i = 0; i < kSteps; ++i) eng.wait_until(eng.now() + 1);
      });
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * fibers * kSteps);
}
BENCHMARK(BM_FiberHandoff)->Arg(2)->Arg(32);

void BM_ParallelEngineDispatch(benchmark::State& state) {
  // Conservative-quantum multi-domain dispatch (docs/PARALLEL.md): four
  // domains each burn through a local event chain, with every 64th event
  // crossing a boundary channel into the next domain one quantum ahead.
  // Arg = host threads; the events_dispatched total (and every sink) is
  // identical at any thread count — this measures barrier/merge overhead
  // and, on multi-core hosts, the parallel speedup.
  const auto threads = static_cast<unsigned>(state.range(0));
  constexpr unsigned kDomains = 4;
  constexpr int kEventsPerDomain = 10000;
  sim::ParallelEngine::Config cfg;
  cfg.domains = kDomains;
  cfg.threads = threads;
  cfg.quantum_ns = 1000;
  for (auto _ : state) {
    sim::ParallelEngine pe(cfg);
    struct alignas(64) Sink { int v = 0; };  // one cache line per domain
    std::array<Sink, kDomains> sinks{};
    for (unsigned d = 0; d < kDomains; ++d) {
      Sink* sink = &sinks[d];
      Sink* peer = &sinks[(d + 1) % kDomains];
      for (int i = 0; i < kEventsPerDomain; ++i) {
        const auto t = static_cast<sim::Time>(i) * 10;
        if (i % 64 == 0) {
          const unsigned dst = (d + 1) % kDomains;
          pe.domain(d).at(t, [&pe, d, dst, t, sink, peer] {
            ++sink->v;
            pe.send(d, dst, t + 1000, [peer] { ++peer->v; });
          });
        } else {
          pe.domain(d).at(t, [sink] { ++sink->v; });
        }
      }
    }
    pe.run();
    benchmark::DoNotOptimize(sinks);
  }
  state.SetItemsProcessed(state.iterations() * kDomains * kEventsPerDomain);
}
BENCHMARK(BM_ParallelEngineDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_SubCacheHit(benchmark::State& state) {
  cache::SubCache sc;
  sim::Rng rng(1);
  (void)sc.access(0x1000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc.contains(0x1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubCacheHit);

void BM_LocalCacheTouch(benchmark::State& state) {
  cache::LocalCache lc;
  sim::Rng rng(1);
  mem::SubPageId sp = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lc.touch(sp++ % 100000, cache::LineState::kShared,
                                      rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalCacheTouch);

void BM_RingTransaction(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    net::SlottedRing ring(eng, {}, "bm");
    int done = 0;
    for (int i = 0; i < 1000; ++i) {
      ring.inject(static_cast<unsigned>(i) % 32, static_cast<unsigned>(i) % 2,
                  [&done](sim::Duration) { ++done; });
    }
    eng.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RingTransaction);

void BM_SimulatedSharedReads(benchmark::State& state) {
  const auto nproc = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    machine::KsrMachine m(machine::MachineConfig::ksr1(nproc));
    auto arr = m.alloc<double>("bm", 4096);
    m.run([&](machine::Cpu& cpu) {
      for (unsigned i = cpu.id(); i < 4096; i += cpu.nproc()) {
        cpu.write(arr, i, 1.0);
      }
      for (unsigned rep = 0; rep < 4; ++rep) {
        for (unsigned i = 0; i < 4096; i += 16) {
          benchmark::DoNotOptimize(cpu.read(arr, i));
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * nproc * (4096 / 16) * 4);
}
BENCHMARK(BM_SimulatedSharedReads)->Arg(2)->Arg(8)->Arg(32);

void BM_CoherentReadHit(benchmark::State& state) {
  // The coherence fast path: one cell, repeated sub-cache-hit reads of one
  // element through the full Cpu::read API (MRU + sub-cache + timing).
  machine::KsrMachine m(machine::MachineConfig::ksr1(1));
  auto arr = m.alloc<double>("bm", 64);
  for (auto _ : state) {
    m.run([&](machine::Cpu& cpu) {
      cpu.write(arr, 0, 1.0);
      for (int i = 0; i < 10000; ++i) {
        benchmark::DoNotOptimize(cpu.read(arr, 0));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CoherentReadHit);

void BM_BarrierEpisode(benchmark::State& state) {
  const auto nproc = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    machine::KsrMachine m(machine::MachineConfig::ksr1(nproc));
    auto barrier = sync::make_barrier(m, sync::BarrierKind::kTournamentM);
    m.run([&](machine::Cpu& cpu) {
      for (int e = 0; e < 10; ++e) barrier->arrive(cpu);
    });
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_BarrierEpisode)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
