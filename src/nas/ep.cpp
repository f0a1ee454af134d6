#include "ksr/nas/ep.hpp"

#include <algorithm>
#include <cmath>

#include "ksr/sync/atomic.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/padded.hpp"

namespace ksr::nas {

namespace {

// NAS LCG: x_{k+1} = a * x_k mod 2^46, a = 5^13.
constexpr std::uint64_t kA = 1220703125ull;  // 5^13
constexpr std::uint64_t kMask = (1ull << 46) - 1;

[[nodiscard]] constexpr std::uint64_t mul46(std::uint64_t a, std::uint64_t b) {
  // 46-bit operands produce up to 92-bit products: widen before reducing.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) & kMask);
}

/// a^n mod 2^46 — skip-ahead so each cell starts its chunk independently.
[[nodiscard]] constexpr std::uint64_t pow46(std::uint64_t a, std::uint64_t n) {
  std::uint64_t r = 1;
  std::uint64_t base = a & kMask;
  while (n != 0) {
    if (n & 1) r = mul46(r, base);
    base = mul46(base, base);
    n >>= 1;
  }
  return r;
}

struct Lcg {
  std::uint64_t x;
  double next() {
    x = mul46(kA, x);
    return static_cast<double>(x) * 0x1.0p-46;
  }
};

/// Tally one chunk of pairs into a local accumulator.
struct Accum {
  double sx = 0, sy = 0;
  std::array<std::uint64_t, 10> bins{};
  std::uint64_t accepted = 0;

  void pair(double u1, double u2) {
    const double x = 2.0 * u1 - 1.0;
    const double y = 2.0 * u2 - 1.0;
    const double t = x * x + y * y;
    if (t > 1.0 || t == 0.0) return;
    const double f = std::sqrt(-2.0 * std::log(t) / t);
    const double gx = x * f;
    const double gy = y * f;
    sx += gx;
    sy += gy;
    const auto l =
        static_cast<std::size_t>(std::max(std::fabs(gx), std::fabs(gy)));
    if (l < bins.size()) ++bins[l];
    ++accepted;
  }
};

}  // namespace

EpResult ep_reference(const EpConfig& cfg) {
  const std::uint64_t pairs = 1ull << cfg.log2_pairs;
  Lcg g{cfg.seed & kMask};
  Accum acc;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const double u1 = g.next();
    const double u2 = g.next();
    acc.pair(u1, u2);
  }
  EpResult r;
  r.sum_x = acc.sx;
  r.sum_y = acc.sy;
  r.annulus_counts = acc.bins;
  r.accepted = acc.accepted;
  return r;
}

EpResult run_ep(machine::Machine& m, const EpConfig& cfg) {
  const unsigned nproc = m.nproc();
  const std::uint64_t pairs = 1ull << cfg.log2_pairs;

  // Per-cell partial results, each cell's slice on its own sub-pages.
  sync::Padded<double> psx(m, "ep.sx", nproc);
  sync::Padded<double> psy(m, "ep.sy", nproc);
  auto pbins = m.alloc<std::uint64_t>(
      "ep.bins", static_cast<std::size_t>(nproc) * 16,
      machine::Placement::blocked(128));
  sync::Padded<std::uint64_t> pacc(m, "ep.acc", nproc);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);

  EpResult result;
  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::uint64_t chunk = pairs / nproc;
    const std::uint64_t begin = me * chunk;
    const std::uint64_t end = me + 1 == nproc ? pairs : begin + chunk;

    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    // Skip ahead: pair i consumes randoms 2i and 2i+1.
    Lcg g{mul46(pow46(kA, 2 * begin), cfg.seed & kMask)};
    Accum acc;
    for (std::uint64_t i = begin; i < end; ++i) {
      const double u1 = g.next();
      const double u2 = g.next();
      acc.pair(u1, u2);
      cpu.work(cfg.work_per_pair);
    }

    // Publish partials (each to its own sub-page: no false sharing).
    psx.write(cpu, me, acc.sx);
    psy.write(cpu, me, acc.sy);
    for (std::size_t b = 0; b < acc.bins.size(); ++b) {
      cpu.write(pbins, static_cast<std::size_t>(me) * 16 + b, acc.bins[b]);
    }
    pacc.write(cpu, me, acc.accepted);
    barrier->arrive(cpu);

    // Cell 0 reduces — the only remote communication in the kernel.
    if (me == 0) {
      for (unsigned p = 0; p < nproc; ++p) {
        result.sum_x += psx.read(cpu, p);
        result.sum_y += psy.read(cpu, p);
        result.accepted += pacc.read(cpu, p);
        for (std::size_t b = 0; b < result.annulus_counts.size(); ++b) {
          result.annulus_counts[b] +=
              cpu.read(pbins, static_cast<std::size_t>(p) * 16 + b);
        }
      }
    }
    barrier->arrive(cpu);
    cell_seconds[me] = cpu.seconds() - t0;
  });

  result.seconds =
      *std::max_element(cell_seconds.begin(), cell_seconds.end());
  return result;
}

}  // namespace ksr::nas
