#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ksr/check/check.hpp"
#include "ksr/mem/geometry.hpp"
#include "ksr/sim/time.hpp"

// ALLCACHE protocol invariant checker (docs/CHECKING.md).
//
// Every number the experiment suite reports is only as trustworthy as the
// coherence protocol underneath it, and end-to-end fingerprints prove
// determinism, not legality. This checker audits *global* machine state —
// the directory, every cell's two cache levels, the heap bytes, the ring
// injection queues — against the protocol's invariants:
//
//   I1  ownership   at most one cell holds a sub-page writable
//                   (Exclusive/Atomic); a writable copy is the *only* copy;
//                   dir.owner names exactly the writable holder (or the sole
//                   holder left behind by a sole-reader grant).
//   I2  atomicity   dir.atomic <=> the owner's line state is Atomic; no
//                   other cell holds any copy of an Atomic line (get_subpage
//                   and reads NACK against it, so copies cannot legally
//                   appear).
//   I3  copy-set    dir.holders == the set of cells whose local cache has a
//                   readable state for the sub-page; dir.placeholders only
//                   names cells with an allocated page frame holding an
//                   Invalid placeholder; the two sets never overlap.
//   I4  inclusion   a sub-cache never holds sub-blocks of a sub-page the
//                   local cache cannot read (stale first-level data).
//   I5  values      while a sub-page is read-shared (no writable copy), its
//                   heap bytes are frozen: snarf/poststore-refreshed copies
//                   stay value-equal to the owner's bytes because nobody may
//                   write without an exclusive grant (which is audited before
//                   the bytes can change).
//   I6  liveness    no ring position strands a waiting injector without a
//                   scheduled retry (a non-polling queue head would wait
//                   forever); audit timestamps are monotone in simulated
//                   time (the engine additionally refuses to schedule into
//                   the past).
//
// A violation throws ViolationError with a trace-backed diagnostic: the
// failing invariant, the cell and sub-page, the heap region name, the
// directory entry, every cell's line state, and the last 8 protocol events.
//
// Wiring: a tool opens a check::Scope on its machine (below); a test may
// construct a checker against a CoherentMachine and attach_checker() it.
// In a -DKSR_CHECK=ON build the machine calls on_transition() after every
// committed coherence transition; in a default build the hooks compile to
// nothing (see check.hpp) and the checker is still usable as an end-of-run
// audit via audit_all().
namespace ksr::machine {
class Machine;
class CoherentMachine;
}
namespace ksr::net {
class SlottedRing;
}

namespace ksr::check {

/// An invariant violation. The what() string is the full diagnostic.
class ViolationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Committed protocol transitions the machine reports to the checker.
enum class Ev : std::uint8_t {
  kGrantShared,
  kGrantExclusive,
  kGrantAtomic,
  kNack,
  kPoststore,
  kLocalAtomic,    // get_subpage satisfied from an already-owned line
  kReleaseAtomic,  // release_subpage
  kFirstTouch,     // sub-page materialised with no network traffic
  kPageEvict,      // a local-cache page frame was reclaimed
};

[[nodiscard]] const char* to_string(Ev ev) noexcept;

class InvariantChecker {
 public:
  struct Config {
    bool check_values = true;  // I5: freeze-hash audit of read-shared bytes
    bool check_rings = true;   // I6: stranded-head audit of ring queues
  };

  struct Stats {
    std::uint64_t transitions = 0;  // on_transition() calls
    std::uint64_t audits = 0;       // audit_subpage() calls
    std::uint64_t full_audits = 0;  // audit_all() calls
  };

  explicit InvariantChecker(machine::CoherentMachine& m);
  InvariantChecker(machine::CoherentMachine& m, Config cfg);

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Register an interconnect to include in the I6 liveness audit
  /// (KsrMachine::attach_checker registers its rings automatically).
  void add_ring(const net::SlottedRing* ring);

  /// Hook: the machine committed a protocol transition on `sp` at `cell`.
  /// Records the event in the diagnostic trail and audits the sub-page.
  void on_transition(Ev ev, unsigned cell, mem::SubPageId sp);

  /// Audit one sub-page against I1–I5 (and update the I5 freeze record).
  /// Throws ViolationError on the first violated invariant.
  void audit_subpage(mem::SubPageId sp);

  /// Audit the whole machine: every directory entry, plus every resident
  /// line in every cell (catching copies the directory does not know), plus
  /// the ring queues. Intended at end-of-run or from tests.
  void audit_all();

  /// Forget all freeze/trail state (call when the machine's memory system
  /// is reset between experiments).
  void reset();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct TrailEvent {
    sim::Time t = 0;
    Ev ev = Ev::kGrantShared;
    unsigned cell = 0;
    mem::SubPageId sp = 0;
  };

  void audit_rings() const;
  [[noreturn]] void fail(const std::string& invariant, unsigned cell,
                         mem::SubPageId sp, const std::string& detail) const;
  [[nodiscard]] std::string describe_subpage(mem::SubPageId sp) const;
  [[nodiscard]] std::string trail_to_string() const;
  [[nodiscard]] std::uint64_t subpage_hash(mem::SubPageId sp,
                                           bool* mapped) const;

  machine::CoherentMachine& m_;
  Config cfg_;
  Stats stats_;
  std::vector<const net::SlottedRing*> rings_;
  // I5 freeze records: sub-page id -> FNV-1a hash of its 128 heap bytes,
  // present exactly while the sub-page is read-shared (no writable copy).
  std::unordered_map<mem::SubPageId, std::uint64_t> frozen_;
  // Last 8 protocol events, newest last (diagnostic trail).
  std::array<TrailEvent, 8> trail_{};
  std::size_t trail_len_ = 0;
  std::size_t trail_next_ = 0;
  sim::Time last_audit_time_ = 0;
};

/// One run's checker lifecycle, shared by every tool: attaches an
/// InvariantChecker for the scope's lifetime to a machine with a coherence
/// directory (nothing on the bus and butterfly models), detaches it at
/// exit, and returns the end-of-run outcome as a value, so the caller
/// decides where and in which order to report it. The machine must outlive
/// the scope.
class Scope {
 public:
  struct Outcome {
    bool audited = false;   // false: the machine has no coherence directory
    InvariantChecker::Stats stats;
    std::string violation;  // the diagnostic; empty when the audit passed
  };

  explicit Scope(machine::Machine& m);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Audit the whole machine (InvariantChecker::audit_all). A violation is
  /// returned in the outcome, never thrown.
  [[nodiscard]] Outcome audit();

  /// The checker's counts so far, e.g. after a per-transition hook threw
  /// out of the run; zero when nothing is attached.
  [[nodiscard]] InvariantChecker::Stats stats() const;

 private:
  machine::CoherentMachine* cm_;
  std::optional<InvariantChecker> checker_;
};

}  // namespace ksr::check
