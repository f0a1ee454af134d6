#pragma once

#include <memory>

#include "ksr/machine/coherent_machine.hpp"
#include "ksr/net/bus.hpp"

// The Sequent-Symmetry-like machine of §3.2.3: the same cache-coherent cell
// model as the KSR, but every coherence transaction serializes on a single
// bus. With all communication serialized, parallel-communication-path
// algorithms (dissemination/tournament/MCS) lose their advantage and the
// naive counter barrier competes — the paper's qualitative claim.
namespace ksr::machine {

class BusMachine final : public CoherentMachine {
 public:
  explicit BusMachine(const MachineConfig& cfg)
      : CoherentMachine(cfg),
        bus_(std::make_unique<net::Bus>(
            engine_of(0), net::Bus::Config{cfg.bus_transaction_ns})) {}

  [[nodiscard]] net::Bus& bus() noexcept { return *bus_; }

 protected:
  void transport(unsigned cell, mem::SubPageId sp, unsigned target_leaf,
                 std::function<void(sim::Duration)> done) override {
    (void)cell;
    (void)sp;
    (void)target_leaf;
    bus_->transact(std::move(done));
  }

  [[nodiscard]] sim::Duration transaction_overhead_ns(
      Acquire kind, bool crossed_leaf) const override {
    (void)crossed_leaf;
    sim::Duration t = cfg_.bus_overhead_ns;
    if (kind != Acquire::kShared) t += cfg_.bus_overhead_ns / 2;
    return t;
  }

 private:
  std::unique_ptr<net::Bus> bus_;
};

}  // namespace ksr::machine
