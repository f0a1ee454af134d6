#include "ksr/nas/lu.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "ksr/sync/atomic.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/padded.hpp"

namespace ksr::nas {

namespace {

constexpr std::size_t kComp = 5;

struct LuGrid {
  mem::SharedArray<double> mem;  // u then rhs, point-major 5-vectors
  std::size_t n = 0;
  std::size_t array_stride = 0;

  [[nodiscard]] std::size_t idx(unsigned arr, std::size_t x, std::size_t y,
                                std::size_t z, std::size_t c) const noexcept {
    return arr * array_stride + (((z * n + y) * n + x) * kComp) + c;
  }
};

enum : unsigned { kU = 0, kRhs = 1 };

using Vec5 = std::array<double, 5>;

Vec5 read_vec(machine::Cpu& cpu, LuGrid& g, unsigned arr, std::size_t x,
              std::size_t y, std::size_t z) {
  Vec5 v;
  for (std::size_t c = 0; c < kComp; ++c) {
    v[c] = cpu.read(g.mem, g.idx(arr, x, y, z, c));
  }
  return v;
}

void write_vec(machine::Cpu& cpu, LuGrid& g, unsigned arr, std::size_t x,
               std::size_t y, std::size_t z, const Vec5& v) {
  for (std::size_t c = 0; c < kComp; ++c) {
    cpu.write(g.mem, g.idx(arr, x, y, z, c), v[c]);
  }
}

/// SSOR point update: relax u(x,y,z) against the (already updated in this
/// sweep) lower/upper neighbours. A small fixed 5x5 mixing stands in for
/// the NAS Jacobian blocks; the O(5^2..5^3) arithmetic is charged as work.
Vec5 relax(const Vec5& u, const Vec5& rhs, const Vec5& nx, const Vec5& ny,
           const Vec5& nz) {
  Vec5 out;
  for (std::size_t r = 0; r < kComp; ++r) {
    const double coupled = 0.05 * (nx[(r + 1) % kComp] + ny[(r + 2) % kComp] +
                                   nz[(r + 3) % kComp]);
    out[r] = u[r] + 0.4 * (0.3 * rhs[r] - 0.25 * u[r] - coupled);
  }
  return out;
}

}  // namespace

LuResult run_lu(machine::Machine& m, const LuConfig& cfg) {
  const std::size_t n = cfg.n;
  const unsigned nproc = m.nproc();

  LuGrid g;
  g.n = n;
  g.array_stride = n * n * n * kComp;
  g.mem = m.alloc<double>("lu.grid", 2 * g.array_stride);

  for (std::size_t z = 0; z < n; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t c = 0; c < kComp; ++c) {
          const double v =
              std::sin(0.05 * static_cast<double>(2 * x + y + 3 * z + c));
          g.mem.set_value(g.idx(kU, x, y, z, c), v);
          g.mem.set_value(g.idx(kRhs, x, y, z, c), 0.6 * v);
        }
      }
    }
  }

  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  // Pipeline flags: planes completed by each processor in the current sweep
  // (absolute counts, monotone across sweeps and iterations).
  sync::Padded<std::uint32_t> lower_done(m, "lu.lo", nproc);
  sync::Padded<std::uint32_t> upper_done(m, "lu.hi", nproc);

  LuResult out;
  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t y_lo = n * me / nproc;
    const std::size_t y_hi = n * (me + 1) / nproc;

    // Warm-up: own my y-slab (both arrays).
    for (unsigned arr = 0; arr < 2; ++arr) {
      for (std::size_t z = 0; z < n; ++z) {
        for (std::size_t y = y_lo; y < y_hi; ++y) {
          cpu.read_range(g.mem.addr(g.idx(arr, 0, y, z, 0)),
                         n * kComp * sizeof(double));
        }
      }
    }
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    for (unsigned it = 0; it < cfg.iterations; ++it) {
      const std::uint32_t base =
          static_cast<std::uint32_t>(it) * static_cast<std::uint32_t>(n);

      // ---- Lower-triangular sweep: dependence on (x-1, y-1, z-1). The
      // y-1 dependence crosses the slab boundary: wait until the lower
      // neighbour has finished this z-plane, then relax my rows.
      for (std::size_t z = 0; z < n; ++z) {
        if (me > 0 && y_lo > 0) {
          sync::spin_until(cpu, [&] {
            return lower_done.read(cpu, me - 1) >=
                   base + static_cast<std::uint32_t>(z) + 1;
          });
        }
        for (std::size_t y = std::max<std::size_t>(y_lo, 1); y < y_hi; ++y) {
          for (std::size_t x = 1; x < n; ++x) {
            if (z == 0) continue;  // boundary plane held fixed
            const Vec5 u = read_vec(cpu, g, kU, x, y, z);
            const Vec5 rhs = read_vec(cpu, g, kRhs, x, y, z);
            const Vec5 nx = read_vec(cpu, g, kU, x - 1, y, z);
            const Vec5 ny = read_vec(cpu, g, kU, x, y - 1, z);
            const Vec5 nz = read_vec(cpu, g, kU, x, y, z - 1);
            write_vec(cpu, g, kU, x, y, z, relax(u, rhs, nx, ny, nz));
            cpu.work(cfg.work_per_point);
          }
        }
        lower_done.write_post(cpu, me,
                              base + static_cast<std::uint32_t>(z) + 1,
                              cfg.use_poststore);
      }
      barrier->arrive(cpu);

      // ---- Upper-triangular sweep: mirrored dependence on
      // (x+1, y+1, z+1); the pipeline flows from the top slab down.
      for (std::size_t zz = n; zz-- > 0;) {
        if (me + 1 < nproc && y_hi < n) {
          sync::spin_until(cpu, [&] {
            return upper_done.read(cpu, me + 1) >=
                   base + static_cast<std::uint32_t>(n - zz);
          });
        }
        for (std::size_t yy = std::min(y_hi, n - 1); yy-- > y_lo;) {
          for (std::size_t xx = n - 1; xx-- > 0;) {
            if (zz + 1 >= n) continue;  // boundary plane held fixed
            const Vec5 u = read_vec(cpu, g, kU, xx, yy, zz);
            const Vec5 rhs = read_vec(cpu, g, kRhs, xx, yy, zz);
            const Vec5 nx = read_vec(cpu, g, kU, xx + 1, yy, zz);
            const Vec5 ny = read_vec(cpu, g, kU, xx, yy + 1, zz);
            const Vec5 nz = read_vec(cpu, g, kU, xx, yy, zz + 1);
            write_vec(cpu, g, kU, xx, yy, zz, relax(u, rhs, nx, ny, nz));
            cpu.work(cfg.work_per_point);
          }
        }
        upper_done.write_post(cpu, me,
                              base + static_cast<std::uint32_t>(n - zz),
                              cfg.use_poststore);
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
    checksum += g.mem.value(i);
  }
  out.checksum = checksum;
  return out;
}

}  // namespace ksr::nas
