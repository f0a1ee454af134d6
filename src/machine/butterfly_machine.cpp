#include "ksr/machine/butterfly_machine.hpp"

#include <stdexcept>
#include <string>

namespace ksr::machine {

// ---------------------------------------------------------------------------
// ButterflyCpu
// ---------------------------------------------------------------------------

class ButterflyCpu final : public Cpu {
 public:
  ButterflyCpu(ButterflyMachine& m, unsigned cell)
      : Cpu(m, cell, m.cells_[cell].pmon, m.cells_[cell].prog_rng), bm_(m) {}

 protected:
  void access(mem::Sva a, std::size_t bytes, Op op) override {
    (void)op;  // reads and writes cost the same without caches
    const mem::Sva end = a + (bytes == 0 ? 1 : bytes);
    mem::Sva p = a;
    while (p < end) {
      reference(p);
      p = (p / mem::kSubBlockBytes + 1) * mem::kSubBlockBytes;
    }
  }

  void do_get_subpage(mem::Sva a) override {
    const mem::SubPageId sp = mem::subpage_of(a);
    constexpr unsigned kMaxRetries = 1'000'000;
    for (unsigned attempt = 0;; ++attempt) {
      if (attempt > kMaxRetries) {
        throw std::runtime_error(
            "Butterfly get_subpage: lock word never released (livelock)");
      }
      reference(a);  // atomic test&set executes at the home module
      std::uint8_t& lk = bm_.locked_[sp];
      if (lk == 0) {
        lk = 1;
        return;
      }
      ++pmon().atomic_retries;
      tick_ns(machine_.config().atomic_backoff_ns +
              rng().below(machine_.config().atomic_backoff_ns));
    }
  }

  void do_release_subpage(mem::Sva a) override {
    const mem::SubPageId sp = mem::subpage_of(a);
    {
      const auto it = bm_.locked_.find(sp);
      if (it == bm_.locked_.end() || it->second == 0) {
        throw std::logic_error("Butterfly release_subpage: not locked");
      }
    }
    reference(a);  // the clearing write travels to the home module
    // Re-resolve after blocking: other cells' get_subpage calls may have
    // rehashed the lock-word map in the meantime.
    bm_.locked_[sp] = 0;
  }

  // No caches: prefetch and poststore degenerate to hints with no effect.
  void do_prefetch(mem::Sva, bool) override { tick_cycles(1); }
  void do_post_store(mem::Sva) override { tick_cycles(1); }

 private:
  /// One memory reference: local-module access or network round trip.
  void reference(mem::Sva a) {
    lazy_sync();
    const unsigned home = bm_.home_of(a);
    if (home == id_) {
      tick_ns(machine_.config().butterfly_local_ns);
      return;
    }
    hard_sync();
    const sim::Time t0 = local_now_;
    ++pmon().ring_requests;
    bm_.net_->transact(id_, home, [this](sim::Duration w) {
      pmon().inject_wait_ns += w;
      wake_at(eng().now());
    });
    block_until_woken();
    pmon().ring_time_ns += local_now_ - t0;
  }

  ButterflyMachine& bm_;
};

// ---------------------------------------------------------------------------
// ButterflyMachine
// ---------------------------------------------------------------------------

ButterflyMachine::ButterflyMachine(const MachineConfig& cfg) : Machine(cfg) {
  net::Butterfly::Config nc;
  nc.ports = cfg_.nproc;
  nc.link_ns = cfg_.butterfly_link_ns;
  nc.memory_ns = cfg_.butterfly_memory_ns;
  net_ = std::make_unique<net::Butterfly>(engine_of(0), nc);
  cells_.reserve(cfg_.nproc);
  std::uint64_t seed = 0xB0FF1E5ull;
  for (unsigned i = 0; i < cfg_.nproc; ++i) {
    cells_.emplace_back(sim::splitmix64(seed));
  }
}

ButterflyMachine::~ButterflyMachine() = default;

std::unique_ptr<Cpu> ButterflyMachine::make_cpu(unsigned cell) {
  return std::make_unique<ButterflyCpu>(*this, cell);
}

void ButterflyMachine::register_region(const mem::Region& region,
                                       const Placement& p) {
  if (p.kind == Placement::Kind::kBlocked && p.bytes_per_cell > 0) {
    blocked_regions_.push_back({region.base, region.base + region.bytes, p});
  }
}

unsigned ButterflyMachine::home_of(mem::Sva a) const noexcept {
  for (const auto& r : blocked_regions_) {
    if (a >= r.base && a < r.end) {
      const auto cell = (a - r.base) / r.placement.bytes_per_cell;
      return static_cast<unsigned>(cell) % cfg_.nproc;
    }
  }
  return static_cast<unsigned>(mem::page_of(a)) % cfg_.nproc;
}

}  // namespace ksr::machine
