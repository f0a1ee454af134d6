#include "ksr/nas/ft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "ksr/sim/rng.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr::nas {

namespace {

/// Complex N^3 grid: element (x,y,z) stores (re, im) at interleaved doubles.
struct FtGrid {
  mem::SharedArray<double> mem;
  std::size_t n = 0;

  [[nodiscard]] std::size_t base(std::size_t x, std::size_t y,
                                 std::size_t z) const noexcept {
    return 2 * ((z * n + y) * n + x);
  }
};

struct Cpx {
  double re = 0, im = 0;
};

[[nodiscard]] Cpx read_cpx(machine::Cpu& cpu, FtGrid& g, std::size_t b) {
  return {cpu.read(g.mem, b), cpu.read(g.mem, b + 1)};
}
void write_cpx(machine::Cpu& cpu, FtGrid& g, std::size_t b, Cpx v) {
  cpu.write(g.mem, b, v.re);
  cpu.write(g.mem, b + 1, v.im);
}

/// In-place radix-2 FFT along axis `d` for the line at (c1, c2) — c1 is the
/// other in-plane coordinate and c2 the slab coordinate, matching the
/// partition used by the caller. `sign` −1 forward, +1 inverse.
void fft_line(machine::Cpu& cpu, FtGrid& g, unsigned d, std::size_t c1,
              std::size_t c2, int sign, std::uint64_t work) {
  const std::size_t n = g.n;
  auto at = [&](std::size_t i) {
    switch (d) {
      case 0: return g.base(i, c1, c2);
      case 1: return g.base(c1, i, c2);
      default: return g.base(c1, c2, i);
    }
  };
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      const Cpx a = read_cpx(cpu, g, at(i));
      const Cpx b = read_cpx(cpu, g, at(j));
      write_cpx(cpu, g, at(i), b);
      write_cpx(cpu, g, at(j), a);
      cpu.work(4);
    }
  }
  // Butterfly stages.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Cpx wl{std::cos(ang), std::sin(ang)};
    for (std::size_t i = 0; i < n; i += len) {
      Cpx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cpx a = read_cpx(cpu, g, at(i + k));
        const Cpx b = read_cpx(cpu, g, at(i + k + len / 2));
        const Cpx t{b.re * w.re - b.im * w.im, b.re * w.im + b.im * w.re};
        write_cpx(cpu, g, at(i + k), {a.re + t.re, a.im + t.im});
        write_cpx(cpu, g, at(i + k + len / 2), {a.re - t.re, a.im - t.im});
        const Cpx w2{w.re * wl.re - w.im * wl.im,
                     w.re * wl.im + w.im * wl.re};
        w = w2;
        cpu.work(work);
      }
    }
  }
}

/// One full 3-D transform: x and y lines over the z-slab, z lines over the
/// y-slab (the repartition = the all-to-all).
void fft3d(machine::Cpu& cpu, FtGrid& g, int sign, unsigned nproc,
           sync::Barrier& barrier, std::uint64_t work) {
  const std::size_t n = g.n;
  const unsigned me = cpu.id();
  const std::size_t z_lo = n * me / nproc;
  const std::size_t z_hi = n * (me + 1) / nproc;
  const std::size_t y_lo = n * me / nproc;
  const std::size_t y_hi = n * (me + 1) / nproc;

  for (std::size_t z = z_lo; z < z_hi; ++z) {
    for (std::size_t y = 0; y < n; ++y) fft_line(cpu, g, 0, y, z, sign, work);
  }
  barrier.arrive(cpu);
  for (std::size_t z = z_lo; z < z_hi; ++z) {
    for (std::size_t x = 0; x < n; ++x) fft_line(cpu, g, 1, x, z, sign, work);
  }
  barrier.arrive(cpu);
  for (std::size_t y = y_lo; y < y_hi; ++y) {
    for (std::size_t x = 0; x < n; ++x) fft_line(cpu, g, 2, x, y, sign, work);
  }
  barrier.arrive(cpu);
}

}  // namespace

FtResult run_ft(machine::Machine& m, const FtConfig& cfg) {
  const std::size_t n = 1ull << cfg.log2_n;
  const std::size_t points = n * n * n;
  const unsigned nproc = m.nproc();

  FtGrid g;
  g.n = n;
  g.mem = m.alloc<double>("ft.grid", 2 * points);

  // Pseudorandom initial field; keep a host copy for the round-trip check.
  std::vector<double> original(2 * points);
  {
    sim::Rng rng(cfg.seed);
    for (std::size_t i = 0; i < 2 * points; ++i) {
      original[i] = rng.uniform() - 0.5;
      g.mem.set_value(i, original[i]);
    }
  }

  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  FtResult out;
  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes
  double checksum = 0;

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t z_lo = n * me / nproc;
    const std::size_t z_hi = n * (me + 1) / nproc;

    // Warm-up: own my z-slab.
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      cpu.read_range(g.mem.addr(g.base(0, 0, z)),
                     2 * n * n * sizeof(double));
    }
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    // Forward transform.
    fft3d(cpu, g, -1, nproc, *barrier, cfg.work_per_butterfly);

    // Checksum in the frequency domain (cell 0, its own slab suffices for
    // timing realism; the full Parseval sum is taken host-side after).
    for (unsigned it = 0; it < cfg.iterations; ++it) {
      // Evolve: pointwise phase factors on my slab (z-partition; purely
      // local), then inverse transform.
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
          for (std::size_t x = 0; x < n; ++x) {
            const std::size_t b = g.base(x, y, z);
            const Cpx v = read_cpx(cpu, g, b);
            // Unit-magnitude factor: preserves the round-trip check.
            const double ang = 1e-3 * static_cast<double>(x + y + z);
            const Cpx f{std::cos(ang), std::sin(ang)};
            write_cpx(cpu, g, b,
                      {v.re * f.re - v.im * f.im, v.re * f.im + v.im * f.re});
            cpu.work(cfg.work_per_butterfly);
          }
        }
      }
      barrier->arrive(cpu);
    }

    // Undo the evolution (so the round-trip check stays exact), then invert.
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
          const std::size_t b = g.base(x, y, z);
          const Cpx v = read_cpx(cpu, g, b);
          const double ang = -1e-3 * static_cast<double>(x + y + z) *
                             static_cast<double>(cfg.iterations);
          const Cpx f{std::cos(ang), std::sin(ang)};
          write_cpx(cpu, g, b,
                    {v.re * f.re - v.im * f.im, v.re * f.im + v.im * f.re});
          cpu.work(cfg.work_per_butterfly);
        }
      }
    }
    barrier->arrive(cpu);
    fft3d(cpu, g, +1, nproc, *barrier, cfg.work_per_butterfly);

    // Normalise (1/N^3) on my slab.
    const double inv = 1.0 / static_cast<double>(points);
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      for (std::size_t i = 0; i < 2 * n * n; ++i) {
        const std::size_t b = g.base(0, 0, z) + i;
        cpu.write(g.mem, b, cpu.read(g.mem, b) * inv);
        cpu.work(1);
      }
    }
    barrier->arrive(cpu);

    cell_seconds[me] = cpu.seconds() - t0;
  });

  out.seconds = *std::max_element(cell_seconds.begin(), cell_seconds.end());
  (void)checksum;

  // Round-trip error and a simple magnitude checksum, host-side.
  double err = 0, sum = 0;
  for (std::size_t i = 0; i < 2 * points; ++i) {
    const double v = g.mem.value(i);
    err = std::max(err, std::fabs(v - original[i]));
    sum += v * v;
  }
  out.roundtrip_error = err;
  out.checksum = sum;
  return out;
}

}  // namespace ksr::nas
