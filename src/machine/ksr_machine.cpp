#include "ksr/machine/ksr_machine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/sim/rng.hpp"

namespace ksr::machine {

namespace {

void save_ring_stats(ckpt::Writer& w, const net::SlottedRing& r) {
  const net::SlottedRing::Stats& s = r.stats();
  w.u64(s.packets);
  w.u64(static_cast<std::uint64_t>(s.total_inject_wait_ns));
  w.u64(s.retries);
  w.u64(s.max_in_flight);
  w.u64(s.in_flight);
}

void load_ring_stats(ckpt::Reader& r, net::SlottedRing& ring) {
  net::SlottedRing::Stats s;
  s.packets = r.u64();
  s.total_inject_wait_ns = static_cast<sim::Duration>(r.u64());
  s.retries = r.u64();
  s.max_in_flight = r.u64();
  s.in_flight = r.u64();
  ring.restore_stats(s);
}

}  // namespace

KsrMachine::KsrMachine(const MachineConfig& cfg) : CoherentMachine(cfg) {
  const unsigned leaves = cfg_.leaf_rings();
  const bool multi = leaves > 1;
  // Schedule fuzzing: derive a deterministic slot-phase rotation per ring
  // from the fuzz seed (0 keeps every phase 0, the paper layout).
  std::uint64_t phase_seed = cfg_.sched_fuzz_seed;
  leaf_rings_.reserve(leaves);
  for (unsigned l = 0; l < leaves; ++l) {
    net::SlottedRing::Config rc;
    rc.positions = cfg_.leaf_ring_positions();  // cells + ARD interface
    rc.slots_per_subring = cfg_.ring_slots_per_subring;
    rc.subrings = 2;
    rc.hop_ns = cfg_.ring_hop_ns;
    if (cfg_.sched_fuzz_seed != 0) {
      rc.phase = static_cast<unsigned>(sim::splitmix64(phase_seed) %
                                       rc.positions);
    }
    // Each ring lives on the engine of the domain owning its leaf: all of
    // its events then dispatch on that domain's thread (single-domain maps
    // every leaf to engine 0, exactly the seed shape).
    leaf_rings_.push_back(std::make_unique<net::SlottedRing>(
        engine_of(domain_of_leaf(l)), rc, "ring0." + std::to_string(l)));
  }
  if (multi && !multi_domain()) {
    // The explicit level-1 ring exists only single-domain; a multi-domain
    // run models level-1 transit analytically (transport/home_transport)
    // because one shared ring object would serialize every domain thread.
    net::SlottedRing::Config rc;
    rc.positions = MachineConfig::kRing1Positions;  // ARD attachment points
    rc.slots_per_subring = cfg_.ring1_slots_per_subring;
    rc.subrings = 2;
    rc.hop_ns = cfg_.ring1_hop_ns;
    if (cfg_.sched_fuzz_seed != 0) {
      rc.phase = static_cast<unsigned>(sim::splitmix64(phase_seed) %
                                       rc.positions);
    }
    ring1_ = std::make_unique<net::SlottedRing>(engine_of(0), rc, "ring1");
  }
  traffic_shards_.assign(
      domains(), std::vector<std::uint64_t>(
                     static_cast<std::size_t>(leaves) * leaves, 0));
}

KsrMachine::~KsrMachine() = default;

void KsrMachine::topo_snapshot(obs::topo::Snapshot& s) const {
  CoherentMachine::topo_snapshot(s);
  auto ring_use = [](const net::SlottedRing& r, unsigned level,
                     sim::Time elapsed) {
    const net::SlottedRing::Stats& st = r.stats();
    obs::topo::RingUse u;
    u.name = r.name();
    u.level = level;
    u.slots = r.slot_count();
    u.packets = st.packets;
    u.retries = st.retries;
    u.inject_wait_ns = static_cast<std::uint64_t>(st.total_inject_wait_ns);
    u.busy_slot_ns = st.busy_slot_ns;
    u.elapsed_ns = static_cast<std::uint64_t>(elapsed);
    return u;
  };
  for (unsigned l = 0; l < leaf_rings_.size(); ++l) {
    // Elapsed time on the ring's own engine: the occupancy integral's
    // denominator (simulated, so identical at any --sim-threads).
    s.rings.push_back(ring_use(*leaf_rings_[l], 0,
                               par_.domain(domain_of_leaf(l)).now()));
  }
  if (ring1_) s.rings.push_back(ring_use(*ring1_, 1, par_.domain(0).now()));

  const unsigned leaves = leaf_count();
  if (leaves > 1) {
    s.traffic.assign(static_cast<std::size_t>(leaves) * leaves, 0);
    for (const auto& shard : traffic_shards_) {
      for (std::size_t i = 0; i < shard.size(); ++i) s.traffic[i] += shard[i];
    }
  }
}

void KsrMachine::attach_checker(check::InvariantChecker* checker) {
  CoherentMachine::attach_checker(checker);
  if (checker != nullptr) {
    for (auto& r : leaf_rings_) checker->add_ring(r.get());
    if (ring1_) checker->add_ring(ring1_.get());
  }
}

void KsrMachine::ckpt_assert_quiescent() const {
  CoherentMachine::ckpt_assert_quiescent();
  auto check = [](const net::SlottedRing& r) {
    if (!r.idle()) {
      throw std::logic_error(
          "KsrMachine::checkpoint: ring " + r.name() +
          " is not idle (occupied slot or waiting injector) — capture "
          "refused; checkpoints are only legal at a quiescent point");
    }
  };
  for (const auto& r : leaf_rings_) check(*r);
  if (ring1_) check(*ring1_);
}

void KsrMachine::ckpt_save(ckpt::Writer& w) const {
  CoherentMachine::ckpt_save(w);
  w.u32(static_cast<std::uint32_t>(leaf_rings_.size()));
  for (const auto& r : leaf_rings_) save_ring_stats(w, *r);
  w.boolean(ring1_ != nullptr);
  if (ring1_) save_ring_stats(w, *ring1_);
}

void KsrMachine::ckpt_load(ckpt::Reader& r) {
  CoherentMachine::ckpt_load(r);
  const std::uint32_t nrings = r.u32();
  if (nrings != leaf_rings_.size()) {
    throw std::runtime_error("KsrMachine::restore: checkpoint has " +
                             std::to_string(nrings) +
                             " leaf ring(s), machine has " +
                             std::to_string(leaf_rings_.size()));
  }
  for (auto& ring : leaf_rings_) load_ring_stats(r, *ring);
  const bool has_ring1 = r.boolean();
  if (has_ring1 != (ring1_ != nullptr)) {
    throw std::runtime_error(
        "KsrMachine::restore: level-1 ring presence mismatch");
  }
  if (ring1_) load_ring_stats(r, *ring1_);
}

void KsrMachine::transport(unsigned cell, mem::SubPageId sp,
                           unsigned target_leaf,
                           std::function<void(sim::Duration)> done) {
  const unsigned my_leaf = leaf_of(cell);
  const unsigned sr = mem::subring_of(sp);
  // Traffic matrix: one transport from my_leaf toward target_leaf, counted
  // in the source domain's shard (this runs on the source cell's thread).
  ++traffic_shards_[domain_of_cell(cell)]
                   [static_cast<std::size_t>(my_leaf) * leaf_count() +
                    target_leaf];
  if (target_leaf == my_leaf || leaf_rings_.size() == 1) {
    leaf_rings_[my_leaf]->inject(pos_of(cell), sr, std::move(done));
    return;
  }
  const unsigned ard_pos = cfg_.cells_per_leaf;  // ARD interface index
  if (multi_domain()) {
    // Same-domain cross-leaf hop: own ring to the ARD, an analytic level-1
    // circulation (the shared ring1 object cannot be touched from domain
    // threads), then the target leaf ring from its ARD. Only ever called
    // with a target inside this cell's domain.
    sim::Engine* eng = &engine_of(domain_of_cell(cell));
    const sim::Duration l1 =
        static_cast<sim::Duration>(MachineConfig::kRing1Positions) *
        cfg_.ring1_hop_ns;
    leaf_rings_[my_leaf]->inject(
        pos_of(cell), sr,
        [this, eng, l1, sr, target_leaf, ard_pos,
         done = std::move(done)](sim::Duration w1) mutable {
          eng->in(l1, [this, sr, target_leaf, ard_pos, w1,
                       done = std::move(done)]() mutable {
            leaf_rings_[target_leaf]->inject(
                ard_pos, sr, [w1, done = std::move(done)](sim::Duration w3) {
                  done(w1 + w3);
                });
          });
        });
    return;
  }
  // Three legs: my leaf ring (to our ARD), the level-1 ring, the remote
  // leaf ring — each a full circulation with its own slot acquisition.
  leaf_rings_[my_leaf]->inject(
      pos_of(cell), sr,
      [this, sr, my_leaf, target_leaf, ard_pos,
       done = std::move(done)](sim::Duration w1) mutable {
        ring1_->inject(
            my_leaf, sr,
            [this, sr, target_leaf, ard_pos, w1,
             done = std::move(done)](sim::Duration w2) mutable {
              leaf_rings_[target_leaf]->inject(
                  ard_pos, sr,
                  [w1, w2, done = std::move(done)](sim::Duration w3) {
                    done(w1 + w2 + w3);
                  });
            });
      });
}

void KsrMachine::home_transport(unsigned from_leaf, unsigned home,
                                mem::SubPageId sp,
                                std::function<void(sim::Duration)> done) {
  // Home-side arrival of a boundary-channel request: the level-1 transit
  // from the requester's ARD (analytic circulation — see transport), then
  // the home leaf ring entered at its ARD. Runs on the home domain's
  // engine — so the cross-domain leg lands in the home domain's traffic
  // shard.
  ++traffic_shards_[domain_of_leaf(home)]
                   [static_cast<std::size_t>(from_leaf) * leaf_count() + home];
  const unsigned ard_pos = cfg_.cells_per_leaf;
  const unsigned sr = mem::subring_of(sp);
  sim::Engine& eng = engine_of(domain_of_leaf(home));
  const sim::Duration l1 =
      static_cast<sim::Duration>(MachineConfig::kRing1Positions) *
      cfg_.ring1_hop_ns;
  eng.in(l1, [this, home, sr, ard_pos, done = std::move(done)]() mutable {
    leaf_rings_[home]->inject(ard_pos, sr, std::move(done));
  });
}

sim::Duration KsrMachine::transaction_overhead_ns(Acquire kind,
                                                  bool crossed_leaf) const {
  sim::Duration t = cfg_.ring_fixed_ns;
  if (kind != Acquire::kShared) {
    // Fig. 2: network writes are slightly dearer than network reads.
    t += cfg_.localcache_write_ns - cfg_.localcache_read_ns;
  }
  if (crossed_leaf) t += 2 * cfg_.ard_crossing_ns;
  return t;
}

}  // namespace ksr::machine
