#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ksr/machine/machine.hpp"
#include "ksr/sync/trace.hpp"

// The nine barrier implementations of Fig. 4 / Fig. 5 (paper §3.2.2):
//
//   counter        — naive central counter; every arrival serializes on one
//                    hot sub-page and every spinner re-fetches it.
//   tree           — dynamic binary combining tree (fetch&decrement per pair
//                    node), tree-based wake-up.
//   tree(M)        — same arrival, global wake-up flag set by the last
//                    arriver (with poststore); snarfing releases everybody.
//   dissemination  — log2(P) rounds of P messages (Hensgen/Finkel/Manber).
//   tournament     — statically paired binary tree; losers notify winners,
//                    wake-up walks the binary tree back down.
//   tournament(M)  — tournament arrival, global wake-up flag.
//   MCS            — 4-ary arrival tree with the children's flags PACKED
//                    into one 32-bit word (intentional false sharing, as in
//                    the original algorithm), binary wake-up tree.
//   MCS(M)         — MCS arrival, global wake-up flag.
//   system         — the vendor pthread-style barrier (modelled as the
//                    dynamic tree with global flag plus library overhead,
//                    which is how it measures on the real machine).
//
// All barriers are reusable (epoch counters, no re-initialisation between
// episodes) and work on any Machine.
namespace ksr::sync {

enum class BarrierKind {
  kCounter,
  kTree,
  kTreeM,
  kDissemination,
  kTournament,
  kTournamentM,
  kMcs,
  kMcsM,
  kSystem,
};

[[nodiscard]] constexpr std::string_view to_string(BarrierKind k) noexcept {
  switch (k) {
    case BarrierKind::kCounter: return "counter";
    case BarrierKind::kTree: return "tree";
    case BarrierKind::kTreeM: return "tree(M)";
    case BarrierKind::kDissemination: return "dissemination";
    case BarrierKind::kTournament: return "tournament";
    case BarrierKind::kTournamentM: return "tournament(M)";
    case BarrierKind::kMcs: return "MCS";
    case BarrierKind::kMcsM: return "MCS(M)";
    case BarrierKind::kSystem: return "system";
  }
  return "?";
}

/// All nine kinds, in the order the paper's figures list them.
[[nodiscard]] std::vector<BarrierKind> all_barrier_kinds();

/// The command-line spelling of `k`: to_string() lower-cased with "(M)"
/// spelled "-m" (counter, tree-m, tournament-m, mcs, mcs-m, ...).
[[nodiscard]] std::string barrier_kind_spelling(BarrierKind k);

/// The kind a command-line spelling names. Throws std::invalid_argument
/// listing every spelling on an unknown name.
[[nodiscard]] BarrierKind barrier_kind_named(std::string_view name);

class Barrier {
 public:
  virtual ~Barrier() = default;
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Block until every cell of the machine has arrived. When a tracer is
  /// attached to the cpu's machine, the episode is bracketed with
  /// sync/barrier-arrive + barrier-depart events (subject = this cpu's
  /// traced episode number, detail of the depart = episode duration in ns).
  void arrive(machine::Cpu& cpu) {
    traced(cpu, obs::kEvBarrierArrive, obs::kEvBarrierDepart,
           [&] { return ++episode_[cpu.id()]; }, [&] { do_arrive(cpu); });
  }

 protected:
  explicit Barrier(unsigned nproc) : episode_(nproc, 0) {}

  /// The barrier algorithm itself (timestamps come from the cpu's local
  /// clock, so the logged episode bounds are exactly what the paper times).
  virtual void do_arrive(machine::Cpu& cpu) = 0;

 private:
  std::vector<std::uint32_t> episode_;  // per-cpu trace episode counters
};

/// Build a barrier of `kind` for all nproc cells of `m`. `use_poststore`
/// lets experiments ablate the poststore assist on wake-up flags.
[[nodiscard]] std::unique_ptr<Barrier> make_barrier(machine::Machine& m,
                                                    BarrierKind kind,
                                                    bool use_poststore = true);

/// The Fig. 4/5 experiment: mean simulated seconds per episode of a `kind`
/// barrier on every cell of `m`, over `episodes` episodes after one untimed
/// warm-up, each arrival skewed by up to 500 cycles of work.
[[nodiscard]] double barrier_episode_seconds(machine::Machine& m,
                                             BarrierKind kind, int episodes);

}  // namespace ksr::sync
