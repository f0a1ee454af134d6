#include "ksr/nas/sp.hpp"

#include <algorithm>
#include <cmath>

#include "ksr/sync/barrier.hpp"

namespace ksr::nas {

namespace {

/// Grid accessor over one flat shared array holding the five SP arrays
/// (u, rhs, lhsa, lhsb, lhsc). The per-array base offset implements the
/// base-vs-padded layouts.
struct Grid {
  mem::SharedArray<double> mem;
  std::size_t n = 0;
  std::size_t array_stride = 0;  // elements between consecutive arrays

  [[nodiscard]] std::size_t idx(unsigned arr, std::size_t x, std::size_t y,
                                std::size_t z) const noexcept {
    return arr * array_stride + (z * n + y) * n + x;
  }
};

enum : unsigned { kU = 0, kRhs = 1, kLhsA = 2, kLhsB = 3, kLhsC = 4 };

/// One pentadiagonal line solve along x at line coordinates (y, z): forward
/// elimination then backward substitution, touching all five arrays per
/// point — the access pattern that exposes the sub-cache's random
/// replacement when the five streams are set-aligned.
void solve_line_x(machine::Cpu& cpu, Grid& g, std::size_t y, std::size_t z,
                  std::uint64_t work) {
  const std::size_t n = g.n;
  auto at = [&](unsigned arr, std::size_t i) { return g.idx(arr, i, y, z); };
  // Forward elimination.
  for (std::size_t i = 2; i < n; ++i) {
    const double a = cpu.read(g.mem, at(kLhsA, i));
    const double b = cpu.read(g.mem, at(kLhsB, i));
    const double r1 = cpu.read(g.mem, at(kRhs, i - 1));
    const double r2 = cpu.read(g.mem, at(kRhs, i - 2));
    const double r = cpu.read(g.mem, at(kRhs, i));
    cpu.write(g.mem, at(kRhs, i), r - a * r1 - b * r2);
    cpu.work(work);
  }
  // Backward substitution + solution update.
  for (std::size_t ii = n - 2; ii-- > 0;) {
    const std::size_t i = ii;
    const double c = cpu.read(g.mem, at(kLhsC, i));
    const double a = cpu.read(g.mem, at(kLhsA, i));
    const double r1 = cpu.read(g.mem, at(kRhs, i + 1));
    const double r2 = cpu.read(g.mem, at(kRhs, i + 2));
    const double r = cpu.read(g.mem, at(kRhs, i)) - c * r1 - 0.25 * a * r2;
    cpu.write(g.mem, at(kRhs, i), r);
    const double u = cpu.read(g.mem, at(kU, i));
    cpu.write(g.mem, at(kU, i), u + 0.2 * r);
    cpu.work(work);
  }
}

/// Plane-oriented sweep along y (d==1) or z (d==2) for a fixed value of the
/// remaining coordinate `other` (z for the y sweep, y for the z sweep). All
/// x values advance together with x innermost, so accesses stay contiguous
/// within sub-blocks — the "contiguous access strides" the paper credits
/// for the allocation units never becoming a problem (§4). The recurrence
/// runs along the sweep axis only, so reordering x is value-preserving.
void sweep_plane(machine::Cpu& cpu, Grid& g, unsigned d, std::size_t other,
                 std::uint64_t work) {
  const std::size_t n = g.n;
  auto at = [&](unsigned arr, std::size_t x, std::size_t i) {
    return d == 1 ? g.idx(arr, x, i, other) : g.idx(arr, x, other, i);
  };
  for (std::size_t i = 2; i < n; ++i) {
    for (std::size_t x = 0; x < n; ++x) {
      const double a = cpu.read(g.mem, at(kLhsA, x, i));
      const double b = cpu.read(g.mem, at(kLhsB, x, i));
      const double r1 = cpu.read(g.mem, at(kRhs, x, i - 1));
      const double r2 = cpu.read(g.mem, at(kRhs, x, i - 2));
      const double r = cpu.read(g.mem, at(kRhs, x, i));
      cpu.write(g.mem, at(kRhs, x, i), r - a * r1 - b * r2);
      cpu.work(work);
    }
  }
  for (std::size_t ii = n - 2; ii-- > 0;) {
    const std::size_t i = ii;
    for (std::size_t x = 0; x < n; ++x) {
      const double c = cpu.read(g.mem, at(kLhsC, x, i));
      const double a = cpu.read(g.mem, at(kLhsA, x, i));
      const double r1 = cpu.read(g.mem, at(kRhs, x, i + 1));
      const double r2 = cpu.read(g.mem, at(kRhs, x, i + 2));
      const double r = cpu.read(g.mem, at(kRhs, x, i)) - c * r1 - 0.25 * a * r2;
      cpu.write(g.mem, at(kRhs, x, i), r);
      const double u = cpu.read(g.mem, at(kU, x, i));
      cpu.write(g.mem, at(kU, x, i), u + 0.2 * r);
      cpu.work(work);
    }
  }
}

/// Prefetch every rhs/u sub-page of the slab `[lo, hi)` (z-planes when
/// `by_z`, else y-planes). The prefetch queue holds only a few outstanding
/// fetches, so the loop is software-pipelined: after each queue-full batch
/// the processor overlaps enough work for the batch to land — exactly how
/// the paper's hand-tuned code interleaves prefetches with computation.
void prefetch_slab(machine::Cpu& cpu, Grid& g, unsigned arr, bool by_z,
                   std::size_t lo, std::size_t hi) {
  const std::size_t n = g.n;
  const unsigned depth = cpu.machine().config().prefetch_depth;
  unsigned issued = 0;
  for (std::size_t s = lo; s < hi; ++s) {
    const std::size_t first = by_z ? g.idx(arr, 0, 0, s) : g.idx(arr, 0, s, 0);
    const std::size_t count = by_z ? n * n : n;  // contiguous run
    const mem::Sva a0 = g.mem.addr(first);
    const mem::Sva a1 = g.mem.addr(first + count);
    for (mem::Sva a = a0; a < a1; a += mem::kSubPageBytes) {
      cpu.prefetch(a, /*exclusive=*/true);  // the sweep writes these lines
      if (++issued % depth == 0) cpu.work(190);  // let the batch land
    }
  }
}

/// The poststore experiment (§3.3.3, §4): broadcast every rhs sub-page this
/// cell just wrote. The copies scatter into placeholders as Shared — and the
/// *next* phase writes the same sub-pages, paying a ring upgrade each where
/// an Exclusive hit would have been free. The issuing processor also stalls
/// per poststore until the line reaches its local cache.
void poststore_slab(machine::Cpu& cpu, Grid& g, unsigned arr, bool by_z,
                    std::size_t lo, std::size_t hi) {
  const std::size_t n = g.n;
  for (std::size_t s = lo; s < hi; ++s) {
    const std::size_t first = by_z ? g.idx(arr, 0, 0, s) : g.idx(arr, 0, s, 0);
    const std::size_t count = by_z ? n * n : n;
    const mem::Sva a0 = g.mem.addr(first);
    const mem::Sva a1 = g.mem.addr(first + count);
    for (mem::Sva a = a0; a < a1; a += mem::kSubPageBytes) {
      cpu.post_store(a);
    }
  }
}

}  // namespace

SpResult run_sp(machine::Machine& m, const SpConfig& cfg) {
  const std::size_t n = cfg.n;
  const std::size_t n3 = n * n * n;
  const unsigned nproc = m.nproc();

  // One extra 2 KB block per array staggers the sub-cache set mapping.
  const std::size_t pad =
      cfg.padded_layout ? mem::kBlockBytes / sizeof(double) : 0;
  Grid g;
  g.n = n;
  g.array_stride = n3 + pad;
  g.mem = m.alloc<double>("sp.grid", 5 * g.array_stride);

  // Host-side initial conditions (inputs; ownership set by warm-up below).
  for (std::size_t z = 0; z < n; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const double v = std::sin(0.1 * static_cast<double>(x + 2 * y)) +
                         0.01 * static_cast<double>(z);
        g.mem.set_value(g.idx(kU, x, y, z), v);
        g.mem.set_value(g.idx(kRhs, x, y, z), 0.5 * v);
        g.mem.set_value(g.idx(kLhsA, x, y, z), 0.05);
        g.mem.set_value(g.idx(kLhsB, x, y, z), 0.02);
        g.mem.set_value(g.idx(kLhsC, x, y, z), 0.04);
      }
    }
  }

  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  SpResult out;
  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    // Phases x,y partition the grid by z-planes; the z phase repartitions
    // by y-planes — the communication at the start of each phase.
    const std::size_t z_lo = n * me / nproc;
    const std::size_t z_hi = n * (me + 1) / nproc;
    const std::size_t y_lo = n * me / nproc;
    const std::size_t y_hi = n * (me + 1) / nproc;

    // Warm-up: touch my z-slab of all five arrays (first-touch ownership).
    for (unsigned arr = 0; arr < 5; ++arr) {
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        cpu.read_range(g.mem.addr(g.idx(arr, 0, 0, z)),
                       n * n * sizeof(double));
      }
    }
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    for (unsigned it = 0; it < cfg.iterations; ++it) {
      // ---- Phase X: lines along x, my z-slab. After the previous
      // iteration's z phase, parts of my slab live in the y-owners' caches.
      if (cfg.use_prefetch && it > 0) {
        prefetch_slab(cpu, g, kRhs, /*by_z=*/true, z_lo, z_hi);
        prefetch_slab(cpu, g, kU, /*by_z=*/true, z_lo, z_hi);
      }
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
          solve_line_x(cpu, g, y, z, cfg.work_per_point);
        }
      }
      if (cfg.use_poststore) {
        poststore_slab(cpu, g, kRhs, /*by_z=*/true, z_lo, z_hi);
      }
      barrier->arrive(cpu);

      // ---- Phase Y: sweeps along y, same z-slab (no repartition).
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        sweep_plane(cpu, g, 1, z, cfg.work_per_point);
      }
      if (cfg.use_poststore) {
        poststore_slab(cpu, g, kRhs, /*by_z=*/true, z_lo, z_hi);
      }
      barrier->arrive(cpu);

      // ---- Phase Z: sweeps along z, repartitioned by y.
      if (cfg.use_prefetch) {
        prefetch_slab(cpu, g, kRhs, /*by_z=*/false, y_lo, y_hi);
        prefetch_slab(cpu, g, kU, /*by_z=*/false, y_lo, y_hi);
      }
      for (std::size_t y = y_lo; y < y_hi; ++y) {
        sweep_plane(cpu, g, 2, y, cfg.work_per_point);
      }
      if (cfg.use_poststore) {
        poststore_slab(cpu, g, kRhs, /*by_z=*/false, y_lo, y_hi);
      }
      barrier->arrive(cpu);
    }

    cell_seconds[me] = cpu.seconds() - t0;
  });

  out.total_seconds =
      *std::max_element(cell_seconds.begin(), cell_seconds.end());
  out.seconds_per_iteration = out.total_seconds / cfg.iterations;
  double checksum = 0;
  for (std::size_t i = 0; i < n3; ++i) {
    checksum += g.mem.value(g.idx(kU, 0, 0, 0) + i);
  }
  out.checksum = checksum;
  return out;
}

}  // namespace ksr::nas
