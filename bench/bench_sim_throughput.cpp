// Host-side performance of the simulator itself (google-benchmark): event
// dispatch rate (appended and out-of-order resumes), cache-model access
// path and page eviction, ring transactions, a whole barrier episode, and
// the serve cache's key for a checkpoint preset.
// These are real wall-clock measurements (unlike the paper-table binaries,
// which report simulated seconds).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <string>

#include "ksr/cache/local_cache.hpp"
#include "ksr/cache/subcache.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/net/ring.hpp"
#include "ksr/serve/job.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/parallel_engine.hpp"
#include "ksr/sim/rng.hpp"
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

// A hold model: every fiber re-parks by a seeded random wait, so its resume
// event lands inside the queue instead of behind it (BM_FiberHandoff only
// ever appends). Args: fibers, then the waits' shape. Shape 0 is a spinning
// processor's: a fixed 20 ns step, and one time in 64 a 200-400 ns wait,
// as for a ring transaction. Shape 1 is uniform over 1 us.
void BM_EventQueueHold(benchmark::State& state) {
  const auto fibers = static_cast<int>(state.range(0));
  const bool uniform = state.range(1) != 0;
  constexpr int kSteps = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    for (int f = 0; f < fibers; ++f) {
      eng.spawn([&eng, f, uniform] {
        sim::Rng rng(static_cast<std::uint64_t>(f) + 1);
        for (int i = 0; i < kSteps; ++i) {
          const sim::Duration d = uniform              ? rng.below(1000)
                                  : rng.below(64) == 0 ? 200 + rng.below(200)
                                                       : 20;
          eng.wait_until(eng.now() + d);
        }
      });
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * fibers * kSteps);
}
BENCHMARK(BM_EventQueueHold)
    ->Args({32, 0})
    ->Args({128, 0})
    ->Args({32, 1})
    ->Args({128, 1});

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

// Page allocation under eviction pressure at IS's 1/64-scale geometry
// (2 sets x 16 ways): every touch is a new page, so every touch past the
// first 32 evicts. One page in 8 takes its sub-page Atomic and releases it
// 32 pages later, so a few ways of each set are locked and the victim draw
// skips them.
void BM_LocalCacheEvict(benchmark::State& state) {
  cache::LocalCache lc(cache::LocalCache::Config{2 * 16 * mem::kPageBytes, 16});
  sim::Rng rng(1);
  const auto sp_of = [](mem::PageId pg) {
    return pg * mem::kSubPagesPerPage + pg % mem::kSubPagesPerPage;
  };
  mem::PageId pg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lc.touch(
        sp_of(pg),
        pg % 8 == 0 ? cache::LineState::kAtomic : cache::LineState::kShared,
        rng));
    if (pg >= 32 && pg % 8 == 0) {
      lc.set_state(sp_of(pg - 32), cache::LineState::kShared);
    }
    ++pg;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalCacheEvict);

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

// Keying a checkpoint-preset spec, the serve cache's per-hit cost: the
// canonical string digests every byte of the preset. The preset is a
// captured 64-cell IS warm-up image (about 1.5 MB).
void BM_PresetKey(benchmark::State& state) {
  serve::JobSpec spec;
  spec.workload = "is";
  spec.procs = 64;
  spec.scale = 64;
  spec.log2_keys = 11;
  spec.log2_buckets = 7;
  spec.restore_from = (std::filesystem::temp_directory_path() /
                       ("ksr_bm_preset_" + std::to_string(::getpid()) +
                        ".ckpt"))
                          .string();
  {
    auto m = machine::make_machine(spec.machine_config(1));
    serve::run_warmup(spec, *m);
    m->checkpoint_to(spec.restore_from);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::derive_key(spec));
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove(spec.restore_from);
}
BENCHMARK(BM_PresetKey);

}  // namespace

BENCHMARK_MAIN();
