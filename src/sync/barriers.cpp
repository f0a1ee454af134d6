#include "ksr/sync/barrier.hpp"

#include <bit>
#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ksr/sync/atomic.hpp"
#include "ksr/sync/padded.hpp"

namespace ksr::sync {

namespace {

using machine::Cpu;
using machine::Machine;

[[nodiscard]] unsigned log2_ceil(unsigned n) noexcept {
  unsigned r = 0;
  while ((1u << r) < n) ++r;
  return r;
}

// ---------------------------------------------------------------------------
// counter — central counter + episode word on ONE sub-page. Spinners keep
// re-fetching the very sub-page every arriver locks: the hot spot.
// ---------------------------------------------------------------------------
class CounterBarrier final : public Barrier {
 public:
  explicit CounterBarrier(Machine& m)
      : Barrier(m.nproc()),
        nproc_(m.nproc()),
        meta_(m.alloc<std::uint32_t>("bar.counter", 2)),
        epoch_(m.nproc(), 0) {}

  void do_arrive(Cpu& cpu) override {
    const std::uint32_t e = ++epoch_[cpu.id()];
    cpu.get_subpage(meta_.addr(0));
    const std::uint32_t arrived = cpu.read(meta_, 0) + 1;
    if (arrived == nproc_) {
      cpu.write(meta_, 0, 0);  // reset for the next episode
      cpu.write(meta_, 1, e);  // completion becomes visible
      cpu.release_subpage(meta_.addr(0));
      return;
    }
    cpu.write(meta_, 0, arrived);
    cpu.release_subpage(meta_.addr(0));
    spin_until(cpu, [&] { return cpu.read(meta_, 1) >= e; });
  }

 private:
  unsigned nproc_;
  mem::SharedArray<std::uint32_t> meta_;
  std::vector<std::uint32_t> epoch_;
};

// ---------------------------------------------------------------------------
// tree / tree(M) — dynamic binary combining tree. A counter per pair node
// (its own sub-page, updated under get_subpage); the last arriver climbs.
// Wake-up: per-node flags down the same tree, or one global flag (M).
// ---------------------------------------------------------------------------
class TreeBarrier final : public Barrier {
 public:
  TreeBarrier(Machine& m, bool global_flag, bool use_poststore,
              std::string_view label)
      : Barrier(m.nproc()),
        nproc_(m.nproc()),
        global_flag_(global_flag),
        post_(use_poststore && m.config().has_poststore),
        epoch_(m.nproc(), 0) {
    // Level sizes: n, ceil(n/2), ... 1.
    unsigned width = nproc_;
    while (width > 1) {
      level_offset_.push_back(static_cast<unsigned>(fanin_.size()));
      const unsigned nodes = (width + 1) / 2;
      for (unsigned j = 0; j < nodes; ++j) {
        fanin_.push_back(2 * j + 1 < width ? 2u : 1u);
      }
      width = nodes;
    }
    counters_ = Padded<std::uint32_t>(m, std::string(label) + ".cnt",
                                      fanin_.size());
    wakeup_ = Padded<std::uint32_t>(m, std::string(label) + ".wake",
                                    fanin_.size());
    global_ = Padded<std::uint32_t>(m, std::string(label) + ".flag", 1);
  }

  void do_arrive(Cpu& cpu) override {
    const std::uint32_t e = ++epoch_[cpu.id()];
    if (nproc_ == 1) return;

    std::vector<unsigned> won;  // nodes this cpu climbed past (it must wake)
    unsigned pos = cpu.id();
    bool waiting = false;
    unsigned stop_node = 0;

    for (unsigned level = 0; level < level_offset_.size(); ++level) {
      const unsigned node = level_offset_[level] + pos / 2;
      pos /= 2;
      if (fanin_[node] == 1) continue;  // odd processor passes through
      // fetch&increment under get_subpage (paper §3.2.2).
      cpu.get_subpage(counters_.addr(node));
      const std::uint32_t arrived = counters_.read(cpu, node) + 1;
      const bool last = arrived == fanin_[node];
      counters_.write(cpu, node, last ? 0 : arrived);
      cpu.release_subpage(counters_.addr(node));
      if (!last) {
        waiting = true;
        stop_node = node;
        break;
      }
      won.push_back(node);
    }

    if (!waiting) {
      // Champion: release everybody.
      if (global_flag_) {
        global_.write_post(cpu, 0, e, post_);
        return;
      }
      for (auto it = won.rbegin(); it != won.rend(); ++it) {
        wakeup_.write_post(cpu, *it, e, post_);
      }
      return;
    }

    if (global_flag_) {
      spin_until(cpu, [&] { return global_.read(cpu, 0) >= e; });
      return;
    }
    spin_until(cpu, [&] { return wakeup_.read(cpu, stop_node) >= e; });
    for (auto it = won.rbegin(); it != won.rend(); ++it) {
      wakeup_.write_post(cpu, *it, e, post_);
    }
  }

 private:
  unsigned nproc_;
  bool global_flag_;
  bool post_;
  std::vector<unsigned> level_offset_;
  std::vector<unsigned> fanin_;
  Padded<std::uint32_t> counters_;
  Padded<std::uint32_t> wakeup_;
  Padded<std::uint32_t> global_;
  std::vector<std::uint32_t> epoch_;
};

// ---------------------------------------------------------------------------
// dissemination — ceil(log2 P) rounds; in round r processor i signals
// (i + 2^r) mod P and waits for its own flag. O(P log P) distinct messages,
// but every round's P messages can ride the pipelined ring in parallel.
// ---------------------------------------------------------------------------
class DisseminationBarrier final : public Barrier {
 public:
  explicit DisseminationBarrier(Machine& m)
      : Barrier(m.nproc()),
        nproc_(m.nproc()),
        rounds_(log2_ceil(m.nproc())),
        flags_(m, "bar.diss", static_cast<std::size_t>(m.nproc()) *
                                  std::max(rounds_, 1u),
               std::max(rounds_, 1u)),
        epoch_(m.nproc(), 0) {}

  void do_arrive(Cpu& cpu) override {
    const std::uint32_t e = ++epoch_[cpu.id()];
    const unsigned me = cpu.id();
    for (unsigned r = 0; r < rounds_; ++r) {
      const unsigned partner = (me + (1u << r)) % nproc_;
      flags_.write(cpu, partner * rounds_ + r, e);
      spin_until(cpu, [&] { return flags_.read(cpu, me * rounds_ + r) >= e; });
    }
  }

 private:
  unsigned nproc_;
  unsigned rounds_;
  Padded<std::uint32_t> flags_;
  std::vector<std::uint32_t> epoch_;
};

// ---------------------------------------------------------------------------
// tournament / tournament(M) — statically determined binary tree. In round r
// processor w (bit r clear) hosts the match; the loser (bit r set) posts its
// arrival at the winner and waits. Each pair's communication is one
// cache-line transfer, and all matches of a round proceed in parallel on the
// pipelined ring — the property that makes this barrier win on the KSR-1.
// ---------------------------------------------------------------------------
class TournamentBarrier final : public Barrier {
 public:
  TournamentBarrier(Machine& m, bool global_flag, bool use_poststore,
                    std::string_view label)
      : Barrier(m.nproc()),
        nproc_(m.nproc()),
        rounds_(log2_ceil(m.nproc())),
        global_flag_(global_flag),
        post_(use_poststore && m.config().has_poststore),
        arrival_(m, std::string(label) + ".arr",
                 static_cast<std::size_t>(m.nproc()) * std::max(rounds_, 1u),
                 std::max(rounds_, 1u)),
        wakeup_(m, std::string(label) + ".wake", m.nproc()),
        global_(m, std::string(label) + ".flag", 1),
        epoch_(m.nproc(), 0) {}

  void do_arrive(Cpu& cpu) override {
    const std::uint32_t e = ++epoch_[cpu.id()];
    const unsigned me = cpu.id();
    unsigned lost_round = rounds_;

    for (unsigned r = 0; r < rounds_; ++r) {
      if ((me & (1u << r)) != 0) {
        const unsigned winner = me - (1u << r);
        arrival_.write(cpu, winner * rounds_ + r, e);
        lost_round = r;
        break;
      }
      const unsigned loser = me + (1u << r);
      if (loser < nproc_) {
        spin_until(cpu,
                   [&] { return arrival_.read(cpu, me * rounds_ + r) >= e; });
      }
    }

    const bool champion = lost_round == rounds_ && me == 0;
    if (champion) {
      if (global_flag_) {
        global_.write_post(cpu, 0, e, post_);
        return;
      }
    } else {
      if (global_flag_) {
        spin_until(cpu, [&] { return global_.read(cpu, 0) >= e; });
        return;
      }
      spin_until(cpu, [&] { return wakeup_.read(cpu, me) >= e; });
    }

    // Wake the losers of the rounds below (reverse order: top of my subtree
    // first). The champion walks all rounds; a loser walks those it won.
    const unsigned top = champion ? rounds_ : lost_round;
    for (unsigned r = top; r-- > 0;) {
      const unsigned loser = me + (1u << r);
      if (loser < nproc_) wakeup_.write_post(cpu, loser, e, post_);
    }
  }

 private:
  unsigned nproc_;
  unsigned rounds_;
  bool global_flag_;
  bool post_;
  Padded<std::uint32_t> arrival_;
  Padded<std::uint32_t> wakeup_;
  Padded<std::uint32_t> global_;
  std::vector<std::uint32_t> epoch_;
};

// ---------------------------------------------------------------------------
// MCS / MCS(M) — 4-ary arrival tree; the four children of a node indicate
// arrival by writing DESIGNATED BYTES OF ONE 32-BIT WORD. On an
// invalidation-based machine the four writes false-share the word's
// sub-page and serialize into four ring transactions — the §3.2.2 analysis.
// Wake-up uses a binary tree (or the global flag in the (M) variant).
// ---------------------------------------------------------------------------
class McsBarrier final : public Barrier {
 public:
  McsBarrier(Machine& m, bool global_flag, bool use_poststore,
             std::string_view label)
      : Barrier(m.nproc()),
        nproc_(m.nproc()),
        global_flag_(global_flag),
        post_(use_poststore && m.config().has_poststore),
        // One sub-page per tree node; the node's 4 child bytes are PACKED at
        // its start. (Deliberately not one byte per sub-page.)
        childnotready_(m.alloc<std::uint8_t>(
            std::string(label) + ".cnr",
            static_cast<std::size_t>(m.nproc()) * mem::kSubPageBytes,
            machine::Placement::blocked(mem::kSubPageBytes))),
        wakeup_(m, std::string(label) + ".wake", m.nproc()),
        global_(m, std::string(label) + ".flag", 1),
        epoch_(m.nproc(), 0) {}

  void do_arrive(Cpu& cpu) override {
    const std::uint32_t e = ++epoch_[cpu.id()];
    const unsigned me = cpu.id();
    const auto marker = static_cast<std::uint8_t>(e);

    // Wait for my (up to four) arrival children.
    for (unsigned k = 0; k < 4; ++k) {
      const unsigned child = 4 * me + 1 + k;
      if (child >= nproc_) break;
      const std::size_t byte = static_cast<std::size_t>(me) *
                                   mem::kSubPageBytes + k;
      spin_until(cpu, [&] { return cpu.read(childnotready_, byte) == marker; });
    }

    if (me != 0) {
      // Tell my parent — one byte of its packed word (false sharing!).
      const unsigned parent = (me - 1) / 4;
      const std::size_t byte =
          static_cast<std::size_t>(parent) * mem::kSubPageBytes +
          (me - 1) % 4;
      cpu.write(childnotready_, byte, marker);

      if (global_flag_) {
        spin_until(cpu, [&] { return global_.read(cpu, 0) >= e; });
        return;
      }
      spin_until(cpu, [&] { return wakeup_.read(cpu, me) >= e; });
    } else if (global_flag_) {
      global_.write_post(cpu, 0, e, post_);
      return;
    }

    // Binary wake-up tree.
    for (unsigned c : {2 * me + 1, 2 * me + 2}) {
      if (c < nproc_) wakeup_.write_post(cpu, c, e, post_);
    }
  }

 private:
  unsigned nproc_;
  bool global_flag_;
  bool post_;
  mem::SharedArray<std::uint8_t> childnotready_;
  Padded<std::uint32_t> wakeup_;
  Padded<std::uint32_t> global_;
  std::vector<std::uint32_t> epoch_;
};

// ---------------------------------------------------------------------------
// system — the vendor pthread barrier. Measures like the dynamic tree with
// global wake-up flag plus library-call overhead (paper Fig. 4 discussion).
// ---------------------------------------------------------------------------
class SystemBarrier final : public Barrier {
 public:
  explicit SystemBarrier(Machine& m)
      : Barrier(m.nproc()),
        inner_(m, /*global_flag=*/true, /*use_poststore=*/true, "bar.system") {}

  void do_arrive(Cpu& cpu) override {
    cpu.work(120);  // library entry: argument checks, descriptor lookup
    inner_.arrive(cpu);
    cpu.work(80);  // library exit
  }

 private:
  TreeBarrier inner_;
};

}  // namespace

std::vector<BarrierKind> all_barrier_kinds() {
  return {BarrierKind::kSystem,      BarrierKind::kCounter,
          BarrierKind::kTree,        BarrierKind::kTreeM,
          BarrierKind::kDissemination, BarrierKind::kTournament,
          BarrierKind::kTournamentM, BarrierKind::kMcs,
          BarrierKind::kMcsM};
}

std::string barrier_kind_spelling(BarrierKind k) {
  std::string spelled;  // "tournament(M)" -> "tournament-m"
  for (char c : to_string(k)) {
    if (c == '(') {
      spelled += '-';
    } else if (c != ')') {
      spelled += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return spelled;
}

BarrierKind barrier_kind_named(std::string_view name) {
  std::string names;
  for (BarrierKind k : all_barrier_kinds()) {
    const std::string spelled = barrier_kind_spelling(k);
    if (spelled == name) return k;
    names += (names.empty() ? "" : "|") + spelled;
  }
  throw std::invalid_argument("unknown barrier kind '" + std::string(name) +
                              "' (" + names + ")");
}

std::unique_ptr<Barrier> make_barrier(machine::Machine& m, BarrierKind kind,
                                      bool use_poststore) {
  switch (kind) {
    case BarrierKind::kCounter:
      return std::make_unique<CounterBarrier>(m);
    case BarrierKind::kTree:
      return std::make_unique<TreeBarrier>(m, false, use_poststore, "tree");
    case BarrierKind::kTreeM:
      return std::make_unique<TreeBarrier>(m, true, use_poststore, "tree(M)");
    case BarrierKind::kDissemination:
      return std::make_unique<DisseminationBarrier>(m);
    case BarrierKind::kTournament:
      return std::make_unique<TournamentBarrier>(m, false, use_poststore,
                                                 "tournament");
    case BarrierKind::kTournamentM:
      return std::make_unique<TournamentBarrier>(m, true, use_poststore,
                                                 "tournament(M)");
    case BarrierKind::kMcs:
      return std::make_unique<McsBarrier>(m, false, use_poststore, "MCS");
    case BarrierKind::kMcsM:
      return std::make_unique<McsBarrier>(m, true, use_poststore, "MCS(M)");
    case BarrierKind::kSystem:
      return std::make_unique<SystemBarrier>(m);
  }
  return nullptr;
}

double barrier_episode_seconds(Machine& m, BarrierKind kind, int episodes) {
  auto barrier = make_barrier(m, kind);
  double total = 0;
  m.run([&](Cpu& cpu) {
    barrier->arrive(cpu);  // warm-up, outside the timed region
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    const double dt = cpu.seconds() - t0;
    if (dt > total) total = dt;
  });
  return total / episodes;
}

}  // namespace ksr::sync
