#pragma once

#include <memory>
#include <vector>

#include "ksr/machine/coherent_machine.hpp"
#include "ksr/net/ring.hpp"

// The KSR-1/KSR-2 machine: COMA ALLCACHE memory over a hierarchy of slotted
// rings.
//
// Timing comes from the slot-accurate ring model; coherence from the shared
// CoherentMachine core. Behaviours that fall out of the combination:
//
//  * a remote access costs one full ring circulation no matter where the
//    responder sits (unidirectional ring, paper footnote 3);
//  * an access crossing to another leaf ring additionally circulates the
//    level-1 ring and the remote leaf ring through the ARDs (§3.2.4);
//  * get_subpage is refused (NACK) while any cell holds the sub-page Atomic,
//    so contended locks retry over the ring — the serialization of Fig. 3;
//  * read-snarfing refreshes every invalid placeholder when data passes;
//  * poststore pushes an updated sub-page into placeholders, downgrading the
//    writer to Shared (the §3.3.3 poststore pitfall falls out of this).
namespace ksr::machine {

class KsrMachine final : public CoherentMachine {
 public:
  explicit KsrMachine(const MachineConfig& cfg);
  ~KsrMachine() override;

  // --- Topology ---
  [[nodiscard]] unsigned leaf_of(unsigned cell) const noexcept override {
    return cell / cfg_.cells_per_leaf;
  }
  [[nodiscard]] unsigned leaf_count() const noexcept override {
    return static_cast<unsigned>(leaf_rings_.size());
  }
  [[nodiscard]] unsigned pos_of(unsigned cell) const noexcept {
    return cell % cfg_.cells_per_leaf;
  }
  [[nodiscard]] net::SlottedRing& leaf_ring(unsigned leaf) {
    return *leaf_rings_[leaf];
  }
  [[nodiscard]] net::SlottedRing* level1_ring() noexcept { return ring1_.get(); }

  void attach_tracer(obs::Tracer* tracer) override {
    // The base builds per-domain shards on multi-domain machines; each ring
    // logs to its owning domain's tracer so every record is written by the
    // thread advancing that ring's engine.
    Machine::attach_tracer(tracer);
    for (unsigned l = 0; l < leaf_rings_.size(); ++l) {
      leaf_rings_[l]->set_tracer(tracer_of(domain_of_leaf(l)));
    }
    if (ring1_) ring1_->set_tracer(tracer_);
  }

  /// Registers the leaf rings and level-1 ring for the I6 liveness audit.
  void attach_checker(check::InvariantChecker* checker) override;

  /// Domain `d`'s leaf rings, plus the level-1 ring for domain 0 (it
  /// exists single-domain only).
  [[nodiscard]] NetSnapshot net_snapshot_of(unsigned d) const override {
    NetSnapshot s;
    for (unsigned l = 0; l < leaf_rings_.size(); ++l) {
      if (domain_of_leaf(l) == d) fold_ring(s, *leaf_rings_[l]);
    }
    if (ring1_ && d == 0) fold_ring(s, *ring1_);
    return s;
  }

  /// Per-ring slot utilization + the leaf-to-leaf traffic matrix, on top of
  /// the coherent core's shard table and the base's domain plan.
  void topo_snapshot(obs::topo::Snapshot& s) const override;

 protected:
  /// Checkpoint hooks: the coherent core's state plus per-ring Stats.
  /// Capture additionally requires every ring idle — no occupied slot, no
  /// waiting injector (docs/CHECKPOINT.md).
  void ckpt_assert_quiescent() const override;
  void ckpt_save(ckpt::Writer& w) const override;
  void ckpt_load(ckpt::Reader& r) override;

  void transport(unsigned cell, mem::SubPageId sp, unsigned target_leaf,
                 std::function<void(sim::Duration)> done) override;
  void home_transport(unsigned from_leaf, unsigned home, mem::SubPageId sp,
                      std::function<void(sim::Duration)> done) override;
  [[nodiscard]] sim::Duration transaction_overhead_ns(
      Acquire kind, bool crossed_leaf) const override;

 private:
  static void fold_ring(NetSnapshot& s, const net::SlottedRing& r) noexcept {
    const net::SlottedRing::Stats& st = r.stats();
    s.in_flight += st.in_flight;
    s.slots += r.slot_count();
    s.packets += st.packets;
    s.retries += st.retries;
    s.inject_wait_ns += st.total_inject_wait_ns;
  }

  std::vector<std::unique_ptr<net::SlottedRing>> leaf_rings_;
  std::unique_ptr<net::SlottedRing> ring1_;
  // Leaf-to-leaf transport counts (row-major src×dst), sharded one matrix
  // per domain so each is written only by its domain's thread;
  // topo_snapshot folds them. Observability only — never checkpointed.
  std::vector<std::vector<std::uint64_t>> traffic_shards_;
};

}  // namespace ksr::machine
