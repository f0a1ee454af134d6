#include "ksr/nas/bt.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "ksr/sync/barrier.hpp"

namespace ksr::nas {

namespace {

constexpr std::size_t kComp = 5;  // components per grid point

/// Layout: rhs and u, each n^3 points x 5 doubles, point-major (the five
/// components of a point are contiguous: one point = 40 bytes, so three
/// points and a bit share a 128 B sub-page).
struct BtGrid {
  mem::SharedArray<double> mem;
  std::size_t n = 0;
  std::size_t array_stride = 0;

  [[nodiscard]] std::size_t idx(unsigned arr, std::size_t x, std::size_t y,
                                std::size_t z, std::size_t c) const noexcept {
    return arr * array_stride + (((z * n + y) * n + x) * kComp) + c;
  }
};

enum : unsigned { kU = 0, kRhs = 1 };

using Vec5 = std::array<double, 5>;

[[nodiscard]] Vec5 read_vec(machine::Cpu& cpu, BtGrid& g, unsigned arr,
                            std::size_t x, std::size_t y, std::size_t z) {
  Vec5 v;
  for (std::size_t c = 0; c < kComp; ++c) {
    v[c] = cpu.read(g.mem, g.idx(arr, x, y, z, c));
  }
  return v;
}

void write_vec(machine::Cpu& cpu, BtGrid& g, unsigned arr, std::size_t x,
               std::size_t y, std::size_t z, const Vec5& v) {
  for (std::size_t c = 0; c < kComp; ++c) {
    cpu.write(g.mem, g.idx(arr, x, y, z, c), v[c]);
  }
}

/// A deterministic, diagonally dominant 5x5 "block" derived from the local
/// state — standing in for the Jacobian blocks NAS BT assembles on the fly.
/// Applying it is the real data movement; the O(5^3) block arithmetic is
/// charged as work.
[[nodiscard]] Vec5 apply_block(const Vec5& coeff_src, const Vec5& v,
                               double scale) {
  Vec5 out;
  for (std::size_t r = 0; r < kComp; ++r) {
    double acc = 0.8 * v[r];  // dominant diagonal
    for (std::size_t c = 0; c < kComp; ++c) {
      if (c != r) {
        acc += scale * 0.01 * coeff_src[(r + c) % kComp] * v[c];
      }
    }
    out[r] = acc;
  }
  return out;
}

/// Block-tridiagonal line solve along direction `d` at line coordinates
/// (c1, c2): block forward elimination then back-substitution. Each step
/// reads the 5-vectors of the point and its neighbours, applies 5x5 block
/// operations (charged as work), and writes the updated 5-vector.
void solve_block_line(machine::Cpu& cpu, BtGrid& g, unsigned d,
                      std::size_t c1, std::size_t c2, std::uint64_t work) {
  const std::size_t n = g.n;
  auto coord = [&](std::size_t i, std::size_t& x, std::size_t& y,
                   std::size_t& z) {
    switch (d) {
      case 0: x = i, y = c1, z = c2; break;
      case 1: x = c1, y = i, z = c2; break;
      default: x = c1, y = c2, z = i; break;
    }
  };
  // Forward elimination.
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t x, y, z, xp, yp, zp;
    coord(i, x, y, z);
    coord(i - 1, xp, yp, zp);
    const Vec5 u_here = read_vec(cpu, g, kU, x, y, z);
    const Vec5 r_prev = read_vec(cpu, g, kRhs, xp, yp, zp);
    Vec5 r_here = read_vec(cpu, g, kRhs, x, y, z);
    const Vec5 sub = apply_block(u_here, r_prev, 1.0);
    for (std::size_t c = 0; c < kComp; ++c) r_here[c] -= 0.3 * sub[c];
    write_vec(cpu, g, kRhs, x, y, z, r_here);
    cpu.work(work);  // block LU + triangular solves: ~5^3 flops
  }
  // Back substitution + solution update.
  for (std::size_t ii = n - 1; ii-- > 0;) {
    std::size_t x, y, z, xn, yn, zn;
    coord(ii, x, y, z);
    coord(ii + 1, xn, yn, zn);
    const Vec5 u_here = read_vec(cpu, g, kU, x, y, z);
    const Vec5 r_next = read_vec(cpu, g, kRhs, xn, yn, zn);
    Vec5 r_here = read_vec(cpu, g, kRhs, x, y, z);
    const Vec5 sub = apply_block(u_here, r_next, -1.0);
    for (std::size_t c = 0; c < kComp; ++c) r_here[c] -= 0.2 * sub[c];
    write_vec(cpu, g, kRhs, x, y, z, r_here);
    Vec5 u_new = u_here;
    for (std::size_t c = 0; c < kComp; ++c) u_new[c] += 0.1 * r_here[c];
    write_vec(cpu, g, kU, x, y, z, u_new);
    cpu.work(work);
  }
}

}  // namespace

BtResult run_bt(machine::Machine& m, const BtConfig& cfg) {
  const std::size_t n = cfg.n;
  const std::size_t points = n * n * n;
  const unsigned nproc = m.nproc();

  BtGrid g;
  g.n = n;
  g.array_stride = points * kComp;
  g.mem = m.alloc<double>("bt.grid", 2 * g.array_stride);

  for (std::size_t z = 0; z < n; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t c = 0; c < kComp; ++c) {
          const double v =
              std::cos(0.07 * static_cast<double>(x + 3 * y + 2 * z + c));
          g.mem.set_value(g.idx(kU, x, y, z, c), v);
          g.mem.set_value(g.idx(kRhs, x, y, z, c), 0.4 * v);
        }
      }
    }
  }

  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  BtResult out;
  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t z_lo = n * me / nproc;
    const std::size_t z_hi = n * (me + 1) / nproc;
    const std::size_t y_lo = n * me / nproc;
    const std::size_t y_hi = n * (me + 1) / nproc;

    // Warm-up: own my z-slab.
    for (unsigned arr = 0; arr < 2; ++arr) {
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        cpu.read_range(g.mem.addr(g.idx(arr, 0, 0, z, 0)),
                       n * n * kComp * sizeof(double));
      }
    }
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    for (unsigned it = 0; it < cfg.iterations; ++it) {
      // Phase X and Y on the z-slab; phase Z repartitions by y.
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
          solve_block_line(cpu, g, 0, y, z, cfg.work_per_block_op);
        }
      }
      barrier->arrive(cpu);
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        for (std::size_t x = 0; x < n; ++x) {
          solve_block_line(cpu, g, 1, x, z, cfg.work_per_block_op);
        }
      }
      barrier->arrive(cpu);
      if (cfg.use_prefetch) {
        const unsigned depth = m.config().prefetch_depth;
        unsigned issued = 0;
        for (std::size_t y = y_lo; y < y_hi; ++y) {
          for (std::size_t z = 0; z < n; ++z) {
            const mem::Sva a0 = g.mem.addr(g.idx(kRhs, 0, y, z, 0));
            const mem::Sva a1 = g.mem.addr(g.idx(kRhs, 0, y, z, 0) +
                                           n * kComp);
            for (mem::Sva a = a0; a < a1; a += mem::kSubPageBytes) {
              cpu.prefetch(a, /*exclusive=*/true);
              if (++issued % depth == 0) cpu.work(190);
            }
          }
        }
      }
      for (std::size_t y = y_lo; y < y_hi; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
          solve_block_line(cpu, g, 2, x, y, cfg.work_per_block_op);
        }
      }
      barrier->arrive(cpu);
    }

    cell_seconds[me] = cpu.seconds() - t0;
  });

  out.total_seconds =
      *std::max_element(cell_seconds.begin(), cell_seconds.end());
  out.seconds_per_iteration = out.total_seconds / cfg.iterations;
  double checksum = 0;
  for (std::size_t i = 0; i < g.array_stride; ++i) {
    checksum += g.mem.value(g.idx(kU, 0, 0, 0, 0) + i);
  }
  out.checksum = checksum;
  return out;
}

}  // namespace ksr::nas
