#include "ksr/check/checker.hpp"

#include <sstream>

#include "ksr/cache/cell_mask.hpp"
#include "ksr/cache/state.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/coherent_machine.hpp"
#include "ksr/net/ring.hpp"

namespace ksr::check {

namespace {

/// First cell of a mask, clamped for diagnostics (masks here are non-empty
/// at every call site, but a defensive 0 beats UB in an error path).
[[nodiscard]] unsigned first_cell(const cache::CellMask& m) noexcept {
  const int b = m.first_set();
  return b >= 0 ? static_cast<unsigned>(b) : 0u;
}

}  // namespace

const char* to_string(Ev ev) noexcept {
  switch (ev) {
    case Ev::kGrantShared: return "grant-shared";
    case Ev::kGrantExclusive: return "grant-exclusive";
    case Ev::kGrantAtomic: return "grant-atomic";
    case Ev::kNack: return "nack";
    case Ev::kPoststore: return "poststore";
    case Ev::kLocalAtomic: return "local-atomic";
    case Ev::kReleaseAtomic: return "release-atomic";
    case Ev::kFirstTouch: return "first-touch";
    case Ev::kPageEvict: return "page-evict";
  }
  return "?";
}

InvariantChecker::InvariantChecker(machine::CoherentMachine& m)
    : InvariantChecker(m, Config{}) {}

InvariantChecker::InvariantChecker(machine::CoherentMachine& m, Config cfg)
    : m_(m), cfg_(cfg) {}

void InvariantChecker::add_ring(const net::SlottedRing* ring) {
  if (ring != nullptr) rings_.push_back(ring);
}

void InvariantChecker::reset() {
  frozen_.clear();
  trail_len_ = 0;
  trail_next_ = 0;
  last_audit_time_ = 0;
}

void InvariantChecker::on_transition(Ev ev, unsigned cell, mem::SubPageId sp) {
  ++stats_.transitions;
  const sim::Time now = m_.parallel_engine().now();
  trail_[trail_next_] = TrailEvent{now, ev, cell, sp};
  trail_next_ = (trail_next_ + 1) % trail_.size();
  if (trail_len_ < trail_.size()) ++trail_len_;

  if (now < last_audit_time_) {
    fail("I6.monotone-time", cell, sp,
         "transition committed at t=" + std::to_string(now) +
             " ns after an audit at t=" + std::to_string(last_audit_time_) +
             " ns (event-queue timestamps ran backwards)");
  }
  last_audit_time_ = now;

  if (ev == Ev::kPageEvict) {
    // `sp` is the first sub-page of the reclaimed page: the eviction fix-up
    // touched (up to) all 128 of its sub-pages, so audit each one the
    // directory knows. The sub-page of the transaction that triggered the
    // eviction belongs to a *different* page and is still mid-commit — it is
    // audited by its own hook when the commit completes.
    const mem::PageId pg = mem::page_of_subpage(sp);
    for (std::size_t i = 0; i < mem::kSubPagesPerPage; ++i) {
      const mem::SubPageId psp = pg * mem::kSubPagesPerPage + i;
      if (m_.dir_contains(psp)) audit_subpage(psp);
    }
  } else {
    audit_subpage(sp);
  }
  if (cfg_.check_rings) audit_rings();
}

void InvariantChecker::audit_subpage(mem::SubPageId sp) {
  ++stats_.audits;
  using cache::CellMask;
  using cache::LineState;
  const unsigned n = m_.nproc();

  CellMask readable_m;       // cells with a readable copy
  CellMask writable_m;       // cells with Exclusive/Atomic
  CellMask atomic_m;         // cells with Atomic
  CellMask invalid_frame_m;  // cells with an Invalid placeholder frame
  for (unsigned c = 0; c < n; ++c) {
    const auto lk = m_.cells_[c].local.lookup(sp);
    const LineState st = lk.page_present ? lk.state : LineState::kInvalid;
    if (cache::readable(st)) readable_m.set(c);
    if (cache::writable(st)) writable_m.set(c);
    if (st == LineState::kAtomic) atomic_m.set(c);
    if (lk.page_present && st == LineState::kInvalid) {
      invalid_frame_m.set(c);
    }
    if (!cache::readable(st)) {
      // I4: the first-level cache must not serve data the second level
      // cannot read (a missed invalidation would leave stale bytes here).
      const mem::Sva base = mem::subpage_base(sp);
      for (std::size_t off = 0; off < mem::kSubPageBytes;
           off += mem::kSubBlockBytes) {
        if (m_.cells_[c].sub.contains(base + off)) {
          fail("I4.inclusion", c, sp,
               "sub-cache holds sub-block at +" + std::to_string(off) +
                   " of a sub-page whose local-cache state is " +
                   std::string(cache::to_string(st)));
        }
      }
    }
  }

  const auto* e = m_.dir_find(sp);
  if (e == nullptr) {
    if (readable_m.any()) {
      fail("I3.copy-set", first_cell(readable_m), sp,
           "cells " + readable_m.to_string() +
               " hold copies of a sub-page the directory does not know");
    }
    return;
  }

  // I1: ownership.
  if (writable_m.count() > 1) {
    fail("I1.ownership", first_cell(writable_m), sp,
         "two or more writable copies: " + writable_m.to_string());
  }
  if (writable_m.any() && readable_m != writable_m) {
    fail("I1.ownership", first_cell(writable_m), sp,
         "a writable copy must be the only copy, but readable copies are " +
             readable_m.to_string());
  }
  if (e->owner >= 0) {
    const unsigned owner = static_cast<unsigned>(e->owner);
    CellMask only_owner;
    only_owner.assign_single(owner);
    if (readable_m != only_owner) {
      fail("I1.ownership", owner, sp,
           "dir.owner=" + std::to_string(owner) +
               " but the actual copy set is " + readable_m.to_string());
    }
    if (!writable_m.test(owner)) {
      fail("I1.ownership", owner, sp,
           "dir.owner=" + std::to_string(owner) +
               " holds the line in a non-writable state");
    }
  } else if (writable_m.any()) {
    fail("I1.ownership", first_cell(writable_m), sp,
         "writable copy exists but dir.owner is unset");
  }

  // I2: atomicity.
  if (e->atomic) {
    CellMask only_owner;
    if (e->owner >= 0) {
      only_owner.assign_single(static_cast<unsigned>(e->owner));
    }
    if (e->owner < 0 || atomic_m != only_owner) {
      fail("I2.atomicity",
           e->owner >= 0 ? static_cast<unsigned>(e->owner) : 0u, sp,
           "dir.atomic set but the Atomic line states are " +
               atomic_m.to_string());
    }
  } else if (atomic_m.any()) {
    fail("I2.atomicity", first_cell(atomic_m), sp,
         "cell holds the line Atomic but dir.atomic is clear");
  }

  // I3: copy-set.
  if (e->holders != readable_m) {
    CellMask diff = e->holders;
    diff.and_not(readable_m);
    if (diff.none()) {
      diff = readable_m;
      diff.and_not(e->holders);
    }
    fail("I3.copy-set", first_cell(diff), sp,
         "dir.holders=" + e->holders.to_string() +
             " but the readable copies are " + readable_m.to_string());
  }
  if (e->placeholders.intersects(e->holders)) {
    CellMask both = e->placeholders;
    both.intersect(e->holders);
    fail("I3.copy-set", first_cell(both), sp,
         "a cell is both holder and placeholder");
  }
  {
    CellMask ghost = e->placeholders;  // placeholders without a real frame
    ghost.and_not(invalid_frame_m);
    if (ghost.any()) {
      fail("I3.copy-set", first_cell(ghost), sp,
           "dir.placeholders=" + e->placeholders.to_string() +
               " but only cells " + invalid_frame_m.to_string() +
               " have an Invalid placeholder frame");
    }
  }

  // I5: read-shared bytes are frozen until an exclusive grant.
  if (cfg_.check_values) {
    bool mapped = false;
    const std::uint64_t h = subpage_hash(sp, &mapped);
    const auto it = frozen_.find(sp);
    if (it != frozen_.end() && mapped && it->second != h) {
      fail("I5.values",
           readable_m.any() ? first_cell(readable_m) : 0u, sp,
           "heap bytes of a read-shared sub-page changed without an "
           "exclusive grant (refreshed copies are no longer value-equal)");
    }
    if (mapped && writable_m.none() && readable_m.any()) {
      frozen_[sp] = h;
    } else if (it != frozen_.end()) {
      frozen_.erase(sp);
    }
  }
}

void InvariantChecker::audit_all() {
  ++stats_.full_audits;
  // Multi-domain runs audit only at quiescent points — no per-transition
  // hooks record exclusive grants in between, so a surviving freeze record
  // would flag perfectly legal writes. Start from live state instead.
  if (m_.multi_domain()) frozen_.clear();
  m_.dir_for_each(
      [this](mem::SubPageId sp, const machine::CoherentMachine::DirEntry&) {
        audit_subpage(sp);
      });
  // Copies the directory does not know about: sweep every resident line.
  const unsigned n = m_.nproc();
  for (unsigned c = 0; c < n; ++c) {
    m_.cells_[c].local.for_each_subpage(
        [this, c](mem::SubPageId sp, cache::LineState st) {
          if (cache::readable(st) && !m_.dir_contains(sp)) {
            fail("I3.copy-set", c, sp,
                 "cell holds a " + std::string(cache::to_string(st)) +
                     " copy of a sub-page the directory does not know");
          }
        });
  }
  if (cfg_.check_rings) audit_rings();
}

void InvariantChecker::audit_rings() const {
  for (const net::SlottedRing* r : rings_) {
    unsigned subring = 0, pos = 0;
    if (r->find_stranded_head(&subring, &pos)) {
      throw ViolationError(
          "ALLCACHE invariant violated: I6.liveness — ring '" + r->name() +
          "' sub-ring " + std::to_string(subring) + " position " +
          std::to_string(pos) +
          " has a waiting injector with no retry event scheduled (stranded "
          "queue head would wait forever)\n" +
          trail_to_string());
    }
  }
}

std::uint64_t InvariantChecker::subpage_hash(mem::SubPageId sp,
                                             bool* mapped) const {
  const mem::Sva base = mem::subpage_base(sp);
  try {
    const mem::Region& r = m_.heap().region_of(base);
    const std::byte* p = r.data.get() + (base - r.base);
    *mapped = true;
    return ckpt::fnv1a(p, mem::kSubPageBytes);
  } catch (const std::out_of_range&) {
    *mapped = false;
    return 0;
  }
}

std::string InvariantChecker::describe_subpage(mem::SubPageId sp) const {
  std::ostringstream os;
  const mem::Sva base = mem::subpage_base(sp);
  os << "  sub-page " << sp << " (sva 0x" << std::hex << base << std::dec;
  try {
    const mem::Region& r = m_.heap().region_of(base);
    os << " = " << r.name << "+" << (base - r.base);
  } catch (const std::out_of_range&) {
    os << " = <unmapped>";
  }
  os << ")\n";
  if (const auto* e = m_.dir_find(sp)) {
    os << "  directory: holders=" << e->holders.to_string()
       << " placeholders=" << e->placeholders.to_string()
       << " owner=" << e->owner << " atomic=" << (e->atomic ? "yes" : "no")
       << "\n";
  } else {
    os << "  directory: <no entry>\n";
  }
  os << "  cells:";
  for (unsigned c = 0; c < m_.nproc(); ++c) {
    const auto lk = m_.cells_[c].local.lookup(sp);
    if (!lk.page_present) continue;  // no frame: uninteresting
    os << ' ' << c << ':' << cache::to_string(lk.state);
  }
  os << " (cells without a page frame omitted)\n";
  return os.str();
}

std::string InvariantChecker::trail_to_string() const {
  std::ostringstream os;
  os << "  last " << trail_len_ << " protocol events (oldest first):\n";
  for (std::size_t i = 0; i < trail_len_; ++i) {
    const std::size_t idx =
        (trail_next_ + trail_.size() - trail_len_ + i) % trail_.size();
    const TrailEvent& te = trail_[idx];
    os << "    [" << te.t << " ns] " << to_string(te.ev) << " cpu=" << te.cell
       << " sp=" << te.sp << "\n";
  }
  return os.str();
}

void InvariantChecker::fail(const std::string& invariant, unsigned cell,
                            mem::SubPageId sp,
                            const std::string& detail) const {
  std::ostringstream os;
  os << "ALLCACHE invariant violated: " << invariant << " — " << detail
     << "\n  at t=" << m_.parallel_engine().now() << " ns, cpu=" << cell
     << "\n"
     << describe_subpage(sp) << trail_to_string();
  throw ViolationError(os.str());
}

Scope::Scope(machine::Machine& m)
    : cm_(dynamic_cast<machine::CoherentMachine*>(&m)) {
  if (cm_ == nullptr) return;
  checker_.emplace(*cm_);
  cm_->attach_checker(&*checker_);
}

Scope::~Scope() {
  if (cm_ != nullptr) cm_->attach_checker(nullptr);
}

Scope::Outcome Scope::audit() {
  Outcome out;
  if (!checker_) return out;
  out.audited = true;
  try {
    checker_->audit_all();
  } catch (const ViolationError& e) {
    out.violation = e.what();
  }
  out.stats = checker_->stats();
  return out;
}

InvariantChecker::Stats Scope::stats() const {
  return checker_ ? checker_->stats() : InvariantChecker::Stats{};
}

}  // namespace ksr::check
