#include "ksr/machine/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "ksr/ckpt/checkpoint.hpp"

namespace ksr::machine {

sim::ParallelEngine::Config Machine::domain_plan(const MachineConfig& cfg) {
  sim::ParallelEngine::Config pc;
  pc.domains = 1;
  pc.threads = cfg.sim_threads;
  pc.quantum_ns = cfg.sim_quantum_ns();
  if (cfg.requested_domains() <= 1) return pc;
  if (!cfg.supports_partition()) {
    static bool warned_kind = false;
    if (!warned_kind) {
      warned_kind = true;
      std::fprintf(stderr,
                   "warning: cells_per_domain=%u requests %u domains, but "
                   "%s machines serialize on a shared medium and run "
                   "single-domain (see docs/PARALLEL.md)\n",
                   cfg.cells_per_domain, cfg.requested_domains(),
                   to_string(cfg.kind));
    }
    return pc;
  }
  // Ring machines partition by whole leaf rings: a directory shard is owned
  // by exactly one domain, so a domain boundary can never split a leaf.
  if (cfg.cells_per_leaf != 0 && cfg.cells_per_domain % cfg.cells_per_leaf != 0) {
    static bool warned_round = false;
    if (!warned_round) {
      warned_round = true;
      std::fprintf(stderr,
                   "warning: cells_per_domain=%u is not a multiple of "
                   "cells_per_leaf=%u; rounding up to %u cells (%u whole "
                   "leaf rings) per domain\n",
                   cfg.cells_per_domain, cfg.cells_per_leaf,
                   cfg.planned_leaves_per_domain() * cfg.cells_per_leaf,
                   cfg.planned_leaves_per_domain());
    }
  }
  pc.domains = cfg.planned_domains();
  return pc;
}

void Machine::attach_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  tracer_shards_.clear();
  if (tracer_ == nullptr || !multi_domain()) return;
  tracer_shards_.reserve(domains() - 1);
  for (unsigned d = 1; d < domains(); ++d) {
    auto shard = std::make_unique<obs::Tracer>(tracer_->capacity());
    shard->set_enabled_mask(tracer_->enabled_mask());
    tracer_shards_.push_back(std::move(shard));
  }
}

void Machine::merge_tracer_shards() {
  if (tracer_ == nullptr || tracer_shards_.empty()) return;
  std::size_t total = tracer_->size();
  for (const auto& s : tracer_shards_) total += s->size();
  std::vector<obs::Tracer::Record> all;
  all.reserve(total);
  all.insert(all.end(), tracer_->begin(), tracer_->end());
  for (const auto& s : tracer_shards_) {
    all.insert(all.end(), s->begin(), s->end());
  }
  // (time, domain, append) order: each shard's contents are one domain's
  // deterministic execution log, and stable_sort keeps the domain-major
  // concatenation order for same-time records — so the merged buffer is a
  // pure function of simulated data, bit-identical at any thread count.
  std::stable_sort(all.begin(), all.end(),
                   [](const obs::Tracer::Record& a,
                      const obs::Tracer::Record& b) { return a.t < b.t; });
  std::uint64_t dropped = tracer_->dropped();
  for (auto& s : tracer_shards_) {
    dropped += s->dropped();
    s->clear();
  }
  tracer_->clear();
  for (const auto& r : all) tracer_->append(r);
  tracer_->add_dropped(dropped);
}

void Machine::topo_snapshot(obs::topo::Snapshot& s) const {
  s.domains = par_.domains();
  s.quantum_ns = static_cast<std::uint64_t>(par_.quantum_ns());
  if (s.domains <= 1) return;
  // The quantum loop only runs multi-domain; single-domain paths (serial
  // inline, or one unbounded quantum on a pool thread) count quanta
  // differently per --sim-threads, so reporting them would break the
  // byte-equality contract. Multi-domain counts are pure simulated data.
  s.quanta = par_.quanta();
  s.boundary_packets = par_.boundary_packets();
  const auto& stats = par_.channel_stats();
  for (unsigned src = 0; src < s.domains; ++src) {
    for (unsigned dst = 0; dst < s.domains; ++dst) {
      const auto& c = stats[static_cast<std::size_t>(src) * s.domains + dst];
      if (c.packets == 0) continue;
      obs::topo::ChannelUse u;
      u.src = src;
      u.dst = dst;
      u.packets = c.packets;
      u.max_per_quantum = c.max_per_quantum;
      u.slack_hist = c.slack_hist;
      s.channels.push_back(std::move(u));
    }
  }
}

unsigned Cpu::nproc() const noexcept { return machine_.nproc(); }

void Cpu::work(std::uint64_t n) { tick_cycles(n); }

void Cpu::tick_cycles(std::uint64_t n) {
  local_now_ += machine_.config().cycles(n);
}

sim::Engine& Cpu::eng() {
  if (eng_ == nullptr) {
    eng_ = &machine_.engine_of(machine_.domain_of_cell(id_));
  }
  return *eng_;
}

void Cpu::lazy_sync() {
  sim::Engine& e = eng();
  if (e.next_event_time() < local_now_) {
    e.wait_until(local_now_);
    return;
  }
  // Multi-domain: a cache hit is only safe to take without yielding while
  // the local clock stays inside the conservative quantum. Cross-domain
  // traffic (an invalidation of the very line being spun on, say) merges
  // into this domain's queue at the quantum barrier, and the engine can
  // only reach that barrier when this fiber parks. Without this bound a
  // hit-spinning fiber runs its local clock arbitrarily far ahead and
  // never observes remote writes. The strict `>` matches the single-domain
  // rule above: an event at exactly local_now_ is not waited for.
  if (machine_.multi_domain() &&
      local_now_ > machine_.parallel_engine().horizon()) {
    e.wait_until(local_now_);
  }
}

void Cpu::hard_sync() {
  sim::Engine& e = eng();
  if (e.now() < local_now_ || e.next_event_time() < local_now_) {
    e.wait_until(local_now_);
  }
}

void Cpu::block_until_woken() {
  sim::Engine& e = eng();
  e.block();
  local_now_ = std::max(local_now_, e.now());
}

void Cpu::wake_at(sim::Time t) { eng().wake(fiber_, t); }

void Cpu::range(mem::Sva base, std::size_t bytes, Op op) {
  if (bytes == 0) return;
  const mem::Sva end = base + bytes;
  mem::Sva a = base;
  while (a < end) {
    access(a, 1, op);
    // Advance to the next sub-block boundary.
    a = (a / mem::kSubBlockBytes + 1) * mem::kSubBlockBytes;
  }
}

namespace {

// The config section lists every MachineConfig field in a fixed order. On
// restore each value is compared against the restoring machine's own config
// — a checkpoint only makes sense on an identically configured machine, and
// naming the first mismatched field beats diagnosing a divergent run later.
template <typename Emit>
void each_config_field(const MachineConfig& c, Emit&& emit) {
  emit(static_cast<std::uint64_t>(c.kind), "kind");
  emit(c.nproc, "nproc");
  emit(static_cast<std::uint64_t>(c.cycle_ns), "cycle_ns");
  emit(c.subcache_hit_cycles, "subcache_hit_cycles");
  emit(static_cast<std::uint64_t>(c.localcache_read_ns), "localcache_read_ns");
  emit(static_cast<std::uint64_t>(c.localcache_write_ns), "localcache_write_ns");
  emit(static_cast<std::uint64_t>(c.block_alloc_ns), "block_alloc_ns");
  emit(static_cast<std::uint64_t>(c.page_alloc_ns), "page_alloc_ns");
  emit(c.cells_per_leaf, "cells_per_leaf");
  emit(c.ring_slots_per_subring, "ring_slots_per_subring");
  emit(static_cast<std::uint64_t>(c.ring_hop_ns), "ring_hop_ns");
  emit(static_cast<std::uint64_t>(c.ring_fixed_ns), "ring_fixed_ns");
  emit(c.ring1_slots_per_subring, "ring1_slots_per_subring");
  emit(static_cast<std::uint64_t>(c.ring1_hop_ns), "ring1_hop_ns");
  emit(static_cast<std::uint64_t>(c.ard_crossing_ns), "ard_crossing_ns");
  emit(c.subcache.capacity_bytes, "subcache.capacity_bytes");
  emit(c.subcache.ways, "subcache.ways");
  emit(c.localcache.capacity_bytes, "localcache.capacity_bytes");
  emit(c.localcache.ways, "localcache.ways");
  emit(c.read_snarfing ? 1u : 0u, "read_snarfing");
  emit(c.has_prefetch ? 1u : 0u, "has_prefetch");
  emit(c.has_poststore ? 1u : 0u, "has_poststore");
  emit(c.prefetch_depth, "prefetch_depth");
  emit(static_cast<std::uint64_t>(c.atomic_backoff_ns), "atomic_backoff_ns");
  emit(static_cast<std::uint64_t>(c.local_atomic_ns), "local_atomic_ns");
  emit(c.sim_threads, "sim_threads");
  emit(c.cells_per_domain, "cells_per_domain");
  emit(c.sched_fuzz_seed, "sched_fuzz_seed");
  emit(static_cast<std::uint64_t>(c.bus_transaction_ns), "bus_transaction_ns");
  emit(static_cast<std::uint64_t>(c.bus_overhead_ns), "bus_overhead_ns");
  emit(static_cast<std::uint64_t>(c.butterfly_link_ns), "butterfly_link_ns");
  emit(static_cast<std::uint64_t>(c.butterfly_memory_ns), "butterfly_memory_ns");
  emit(static_cast<std::uint64_t>(c.butterfly_local_ns), "butterfly_local_ns");
}

}  // namespace

std::vector<std::byte> Machine::checkpoint() {
  par_.assert_quiescent("Machine::checkpoint");
  ckpt_assert_quiescent();

  ckpt::Writer w;
  each_config_field(cfg_, [&w](std::uint64_t v, const char*) { w.u64(v); });

  // Engine clocks: one record per domain, then the coordinator counters.
  // fibers_spawned keeps FiberId numbering continuous across the restore —
  // ids assigned by the next run() must match the uninterrupted machine's.
  w.u32(par_.domains());
  for (unsigned d = 0; d < par_.domains(); ++d) {
    const sim::Engine::ClockState cs = par_.domain(d).clock_state();
    w.u64(cs.now);
    w.u64(cs.seq);
    w.u64(cs.dispatched);
    w.u64(par_.domain(d).fibers_spawned());
  }
  w.u64(par_.quanta());
  w.u64(par_.boundary_packets());

  // Heap regions in allocation order: geometry plus the raw data bytes.
  w.u64(heap_.region_count());
  for (std::size_t i = 0; i < heap_.region_count(); ++i) {
    const mem::Region& reg = heap_.region(i);
    w.u64(reg.base);
    w.u64(reg.bytes);
    w.str(reg.name);
    w.bytes(reg.data.get(), reg.bytes);
  }

  ckpt_save(w);
  return w.seal();
}

void Machine::restore(const std::vector<std::byte>& image) {
  par_.assert_quiescent("Machine::restore");
  ckpt_assert_quiescent();

  ckpt::Reader r = ckpt::open(image);
  each_config_field(cfg_, [&r](std::uint64_t have, const char* field) {
    const std::uint64_t want = r.u64();
    if (want != have) {
      throw std::runtime_error(
          "Machine::restore: config mismatch on " + std::string(field) +
          " (checkpoint " + std::to_string(want) + ", this machine " +
          std::to_string(have) + ") — restore needs an identically "
          "configured machine");
    }
  });

  const std::uint32_t ndom = r.u32();
  if (ndom != par_.domains()) {
    throw std::runtime_error("Machine::restore: checkpoint has " +
                             std::to_string(ndom) + " domain(s), machine has " +
                             std::to_string(par_.domains()));
  }
  for (unsigned d = 0; d < par_.domains(); ++d) {
    sim::Engine::ClockState cs;
    cs.now = r.u64();
    cs.seq = r.u64();
    cs.dispatched = r.u64();
    par_.domain(d).restore_clock_state(cs);
    par_.domain(d).restore_fibers_spawned(
        static_cast<std::size_t>(r.u64()));
  }
  const std::uint64_t quanta = r.u64();
  const std::uint64_t boundary = r.u64();
  par_.restore_counters(quanta, boundary);

  // Heap: the restoring machine's regions must be a prefix of the image's
  // (same bases, sizes, names — the driver re-issued its alloc() calls, or
  // issued none). Existing regions are overwritten in place so live
  // SharedArray handles stay valid; missing ones are re-allocated, which
  // reproduces the same bases because allocation is bump-pointer.
  const std::uint64_t nregions = r.u64();
  if (heap_.region_count() > nregions) {
    throw std::runtime_error(
        "Machine::restore: machine has " +
        std::to_string(heap_.region_count()) + " heap region(s), checkpoint " +
        std::to_string(nregions) + " — the driver allocated more than the "
        "checkpointed machine ever did");
  }
  for (std::uint64_t i = 0; i < nregions; ++i) {
    const std::uint64_t base = r.u64();
    const std::uint64_t bytes = r.u64();
    const std::string name = r.str();
    const mem::Region* reg;
    if (i < heap_.region_count()) {
      reg = &heap_.region(static_cast<std::size_t>(i));
      if (reg->base != base || reg->bytes != bytes || reg->name != name) {
        throw std::runtime_error(
            "Machine::restore: heap region " + std::to_string(i) +
            " mismatch — checkpoint has '" + name + "' (base " +
            std::to_string(base) + ", " + std::to_string(bytes) +
            " bytes), machine has '" + reg->name + "' (base " +
            std::to_string(reg->base) + ", " + std::to_string(reg->bytes) +
            " bytes); the driver must re-issue the same alloc() sequence");
      }
    } else {
      reg = &heap_.alloc(static_cast<std::size_t>(bytes), name);
      if (reg->base != base) {
        throw std::runtime_error(
            "Machine::restore: re-allocated region '" + name + "' at base " +
            std::to_string(reg->base) + ", checkpoint expects " +
            std::to_string(base));
      }
    }
    r.bytes(reg->data.get(), static_cast<std::size_t>(bytes));
  }

  ckpt_load(r);
  r.expect_end();
}

void Machine::checkpoint_to(const std::string& path) {
  ckpt::write_file(path, checkpoint());
}

void Machine::restore_from(const std::string& path) {
  restore(ckpt::read_file(path));
}

RunResult Machine::run(const Program& program) {
  std::vector<Program> programs(nproc(), program);
  return run(programs);
}

RunResult Machine::run(const std::vector<Program>& programs) {
  if (programs.size() != nproc()) {
    throw std::invalid_argument("Machine::run: one program per cell required");
  }
  for (auto& hook : std::exchange(next_run_hooks_, {})) hook();
  // Domain engines may sit at different times after a previous run; start
  // every fiber at the latest of them so no domain is asked to schedule in
  // its past.
  sim::Time epoch = engine_.now();
  for (unsigned d = 1; d < par_.domains(); ++d) {
    epoch = std::max(epoch, par_.domain(d).now());
  }

  std::vector<cache::PerfMonitor> pmon_before(nproc());
  for (unsigned i = 0; i < nproc(); ++i) pmon_before[i] = cell_pmon(i);

  std::vector<std::unique_ptr<Cpu>> cpus;
  cpus.reserve(nproc());
  for (unsigned i = 0; i < nproc(); ++i) cpus.push_back(make_cpu(i));

  for (unsigned i = 0; i < nproc(); ++i) {
    Cpu* cpu = cpus[i].get();
    const Program* body = &programs[i];
    sim::Engine& eng = engine_of(domain_of_cell(i));
    cpu->bind_engine(eng);
    const sim::FiberId fid = eng.spawn([cpu, body] { (*body)(*cpu); }, epoch);
    cpu->begin_run(epoch, fid);
  }
  par_.run();
  merge_tracer_shards();

  RunResult res;
  res.cell_seconds.resize(nproc());
  res.cell_pmon.resize(nproc());
  for (unsigned i = 0; i < nproc(); ++i) {
    res.cell_seconds[i] = sim::to_seconds(cpus[i]->now() - epoch);
    res.seconds = std::max(res.seconds, res.cell_seconds[i]);

    // Counter deltas for this run.
    cache::PerfMonitor delta = cell_pmon(i);
    delta.sub(pmon_before[i]);
    res.cell_pmon[i] = delta;
    res.pmon.add(delta);
  }
  return res;
}

}  // namespace ksr::machine
