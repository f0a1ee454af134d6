// Correctness of all nine barrier algorithms on all three machine models,
// across processor counts — parameterized sweep (TEST_P).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <tuple>
#include <vector>

#include "ksr/machine/factory.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr::sync {
namespace {

using machine::Cpu;
using machine::MachineConfig;
using machine::MachineKind;

struct Param {
  BarrierKind kind;
  MachineKind machine;
  unsigned nproc;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string n{to_string(info.param.kind)};
  n += "_";
  n += machine::to_string(info.param.machine);
  n += "_p" + std::to_string(info.param.nproc);
  for (auto& c : n) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n;
}

MachineConfig config_for(MachineKind k, unsigned p) {
  switch (k) {
    case MachineKind::kKsr1: return MachineConfig::ksr1(p);
    case MachineKind::kKsr2: return MachineConfig::ksr2(p);
    case MachineKind::kSymmetry: return MachineConfig::symmetry(p);
    case MachineKind::kButterfly: return MachineConfig::butterfly(p);
  }
  return MachineConfig::ksr1(p);
}

class BarrierCorrectness : public testing::TestWithParam<Param> {};

// The fundamental barrier property: no cell enters episode k+1 before every
// cell has finished episode k. We check it by having each cell bump its own
// slot and, right after each barrier, verify every slot reached the episode.
TEST_P(BarrierCorrectness, NoCellRunsAhead) {
  const Param p = GetParam();
  auto m = machine::make_machine(config_for(p.machine, p.nproc));
  auto barrier = make_barrier(*m, p.kind);
  constexpr int kEpisodes = 8;

  // progress[i] is written only by cell i (each on its own sub-page).
  auto progress = m->alloc<std::uint32_t>(
      "progress", static_cast<std::size_t>(p.nproc) * 32,
      machine::Placement::blocked(128));

  bool violated = false;
  m->run([&](Cpu& cpu) {
    for (std::uint32_t ep = 1; ep <= kEpisodes; ++ep) {
      // Skew arrivals so the barrier is exercised under uneven load.
      cpu.work(cpu.rng().below(2000));
      cpu.write(progress, static_cast<std::size_t>(cpu.id()) * 32, ep);
      barrier->arrive(cpu);
      for (unsigned j = 0; j < cpu.nproc(); ++j) {
        if (cpu.read(progress, static_cast<std::size_t>(j) * 32) < ep) {
          violated = true;
        }
      }
    }
  });
  EXPECT_FALSE(violated);
}

std::vector<Param> params_for(MachineKind machine,
                              std::initializer_list<unsigned> procs) {
  std::vector<Param> out;
  for (BarrierKind k : all_barrier_kinds()) {
    for (unsigned p : procs) out.push_back({k, machine, p});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsKsr1, BarrierCorrectness,
    testing::ValuesIn(params_for(MachineKind::kKsr1, {1u, 2u, 3u, 7u, 16u})),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    AllKindsSymmetry, BarrierCorrectness,
    testing::ValuesIn(params_for(MachineKind::kSymmetry, {2u, 8u})),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    AllKindsButterfly, BarrierCorrectness,
    testing::ValuesIn(params_for(MachineKind::kButterfly, {2u, 8u})),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    AllKindsKsr2TwoRings, BarrierCorrectness,
    testing::ValuesIn(params_for(MachineKind::kKsr2, {40u})), param_name);

// Qualitative shape on the KSR-1 (Fig. 4): at 16 processors the tournament
// with global wake-up flag beats the naive counter by a wide margin.
// Every command-line spelling names its kind, and an unknown name lists
// every spelling.
TEST(BarrierKindNamed, ParsesEveryCliSpelling) {
  using ksr::sync::BarrierKind;
  const std::pair<const char*, BarrierKind> table[] = {
      {"counter", BarrierKind::kCounter},
      {"tree", BarrierKind::kTree},
      {"tree-m", BarrierKind::kTreeM},
      {"dissemination", BarrierKind::kDissemination},
      {"tournament", BarrierKind::kTournament},
      {"tournament-m", BarrierKind::kTournamentM},
      {"mcs", BarrierKind::kMcs},
      {"mcs-m", BarrierKind::kMcsM},
      {"system", BarrierKind::kSystem}};
  for (const auto& [name, kind] : table) {
    EXPECT_EQ(ksr::sync::barrier_kind_named(name), kind) << name;
  }
  try {
    (void)ksr::sync::barrier_kind_named("tree(M)");
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'tree(M)'"), std::string::npos);
    for (const auto& [name, kind] : table) {
      EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
  }
}

TEST(BarrierShape, TournamentMBeatsCounterOnKsr1) {
  auto time_barrier = [](BarrierKind kind) {
    machine::KsrMachine m(MachineConfig::ksr1(16));
    auto barrier = make_barrier(m, kind);
    constexpr int kEpisodes = 10;
    double total = 0;
    m.run([&](Cpu& cpu) {
      for (int ep = 0; ep < kEpisodes; ++ep) {
        cpu.work(500);
        barrier->arrive(cpu);
      }
      if (cpu.id() == 0) total = cpu.seconds();
    });
    return total / kEpisodes;
  };
  const double counter = time_barrier(BarrierKind::kCounter);
  const double tm = time_barrier(BarrierKind::kTournamentM);
  EXPECT_LT(tm * 2, counter);
}

}  // namespace
}  // namespace ksr::sync
