#include "ksr/nas/mg.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "ksr/sim/rng.hpp"
#include "ksr/sync/barrier.hpp"

namespace ksr::nas {

namespace {

constexpr double kOmega = 0.6;  // weighted-Jacobi damping

// Both the simulated and the reference implementation run EXACTLY these
// per-point formulas (weighted Jacobi, 7-point Laplacian, 8-child averaging
// restriction, injection prolongation). Jacobi — not Gauss-Seidel — keeps
// every point's update independent of sweep order, so results are identical
// for any processor count.

[[nodiscard]] double jacobi_point(double u_c, double rhs, double u_xm,
                                  double u_xp, double u_ym, double u_yp,
                                  double u_zm, double u_zp) {
  const double au = 6.0 * u_c - (u_xm + u_xp + u_ym + u_yp + u_zm + u_zp);
  return u_c + kOmega * (rhs - au) / 6.0;
}

[[nodiscard]] double residual_point(double u_c, double rhs, double u_xm,
                                    double u_xp, double u_ym, double u_yp,
                                    double u_zm, double u_zp) {
  const double au = 6.0 * u_c - (u_xm + u_xp + u_ym + u_yp + u_zm + u_zp);
  return rhs - au;
}

/// NAS-style sparse charge distribution: +1 / -1 at pseudo-random points.
void fill_rhs(std::vector<double>& rhs, std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  const std::size_t points = n * n * n;
  for (std::size_t k = 0; k < 20; ++k) {
    rhs[rng.below(points)] += (k % 2 == 0) ? 1.0 : -1.0;
  }
}

// ------------------------------------------------------------- reference

struct HostLevel {
  std::size_t n = 0;
  std::vector<double> u, r, tmp;
};

void host_smooth(HostLevel& L) {
  const std::size_t n = L.n;
  auto idx = [n](std::size_t x, std::size_t y, std::size_t z) {
    return (z * n + y) * n + x;
  };
  for (std::size_t z = 1; z + 1 < n; ++z) {
    for (std::size_t y = 1; y + 1 < n; ++y) {
      for (std::size_t x = 1; x + 1 < n; ++x) {
        L.tmp[idx(x, y, z)] = jacobi_point(
            L.u[idx(x, y, z)], L.r[idx(x, y, z)], L.u[idx(x - 1, y, z)],
            L.u[idx(x + 1, y, z)], L.u[idx(x, y - 1, z)],
            L.u[idx(x, y + 1, z)], L.u[idx(x, y, z - 1)],
            L.u[idx(x, y, z + 1)]);
      }
    }
  }
  for (std::size_t z = 1; z + 1 < n; ++z) {
    for (std::size_t y = 1; y + 1 < n; ++y) {
      for (std::size_t x = 1; x + 1 < n; ++x) {
        L.u[idx(x, y, z)] = L.tmp[idx(x, y, z)];
      }
    }
  }
}

void host_residual(HostLevel& L) {
  const std::size_t n = L.n;
  auto idx = [n](std::size_t x, std::size_t y, std::size_t z) {
    return (z * n + y) * n + x;
  };
  for (std::size_t z = 1; z + 1 < n; ++z) {
    for (std::size_t y = 1; y + 1 < n; ++y) {
      for (std::size_t x = 1; x + 1 < n; ++x) {
        L.tmp[idx(x, y, z)] = residual_point(
            L.u[idx(x, y, z)], L.r[idx(x, y, z)], L.u[idx(x - 1, y, z)],
            L.u[idx(x + 1, y, z)], L.u[idx(x, y - 1, z)],
            L.u[idx(x, y + 1, z)], L.u[idx(x, y, z - 1)],
            L.u[idx(x, y, z + 1)]);
      }
    }
  }
}

}  // namespace

MgResult mg_reference(const MgConfig& cfg) {
  const unsigned levels = cfg.log2_n;
  std::vector<HostLevel> L(levels + 1);
  for (unsigned l = 1; l <= levels; ++l) {
    L[l].n = 1ull << l;
    const std::size_t p = L[l].n * L[l].n * L[l].n;
    L[l].u.assign(p, 0.0);
    L[l].r.assign(p, 0.0);
    L[l].tmp.assign(p, 0.0);
  }
  fill_rhs(L[levels].r, L[levels].n, cfg.seed);

  auto norm = [&](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return std::sqrt(s);
  };

  MgResult out;
  out.initial_residual = norm(L[levels].r);

  std::function<void(unsigned)> vcycle = [&](unsigned l) {
    HostLevel& f = L[l];
    for (unsigned s = 0; s < cfg.smooth_steps; ++s) host_smooth(f);
    if (l == 1) return;
    host_residual(f);
    HostLevel& c = L[l - 1];
    const std::size_t cn = c.n;
    auto cidx = [cn](std::size_t x, std::size_t y, std::size_t z) {
      return (z * cn + y) * cn + x;
    };
    const std::size_t fn = f.n;
    auto fidx = [fn](std::size_t x, std::size_t y, std::size_t z) {
      return (z * fn + y) * fn + x;
    };
    // Restrict the residual (8-child average) and clear the correction.
    for (std::size_t z = 0; z < cn; ++z) {
      for (std::size_t y = 0; y < cn; ++y) {
        for (std::size_t x = 0; x < cn; ++x) {
          double acc = 0;
          for (std::size_t d = 0; d < 8; ++d) {
            acc += f.tmp[fidx(2 * x + (d & 1), 2 * y + ((d >> 1) & 1),
                              2 * z + (d >> 2))];
          }
          c.r[cidx(x, y, z)] = 0.125 * acc;
          c.u[cidx(x, y, z)] = 0.0;
        }
      }
    }
    vcycle(l - 1);
    // Prolongate: add the coarse correction to all 8 children.
    for (std::size_t z = 0; z < cn; ++z) {
      for (std::size_t y = 0; y < cn; ++y) {
        for (std::size_t x = 0; x < cn; ++x) {
          const double corr = c.u[cidx(x, y, z)];
          for (std::size_t d = 0; d < 8; ++d) {
            f.u[fidx(2 * x + (d & 1), 2 * y + ((d >> 1) & 1),
                     2 * z + (d >> 2))] += corr;
          }
        }
      }
    }
    for (unsigned s = 0; s < cfg.smooth_steps; ++s) host_smooth(f);
  };

  for (unsigned c = 0; c < cfg.v_cycles; ++c) vcycle(levels);

  host_residual(L[levels]);
  out.final_residual = norm(L[levels].tmp);
  double checksum = 0;
  for (double x : L[levels].u) checksum += x;
  out.checksum = checksum;
  return out;
}

// --------------------------------------------------------------- machine

namespace {

/// One grid level on the simulated machine.
struct SimLevel {
  std::size_t n = 0;
  mem::SharedArray<double> u, r, tmp;
};

struct MgContext {
  machine::Cpu& cpu;
  std::vector<SimLevel>& L;
  const MgConfig& cfg;
  sync::Barrier& barrier;
  unsigned nproc;
  unsigned me;

  [[nodiscard]] std::size_t idx(const SimLevel& lv, std::size_t x,
                                std::size_t y, std::size_t z) const {
    return (z * lv.n + y) * lv.n + x;
  }
  [[nodiscard]] std::size_t z_lo(const SimLevel& lv) const {
    return lv.n * me / nproc;
  }
  [[nodiscard]] std::size_t z_hi(const SimLevel& lv) const {
    return lv.n * (me + 1) / nproc;
  }

  void smooth(SimLevel& lv) {
    auto& cpu_ = cpu;
    const std::size_t n = lv.n;
    for (std::size_t z = std::max<std::size_t>(z_lo(lv), 1);
         z < std::min(z_hi(lv), n - 1); ++z) {
      for (std::size_t y = 1; y + 1 < n; ++y) {
        for (std::size_t x = 1; x + 1 < n; ++x) {
          const double v = jacobi_point(
              cpu_.read(lv.u, idx(lv, x, y, z)),
              cpu_.read(lv.r, idx(lv, x, y, z)),
              cpu_.read(lv.u, idx(lv, x - 1, y, z)),
              cpu_.read(lv.u, idx(lv, x + 1, y, z)),
              cpu_.read(lv.u, idx(lv, x, y - 1, z)),
              cpu_.read(lv.u, idx(lv, x, y + 1, z)),
              cpu_.read(lv.u, idx(lv, x, y, z - 1)),
              cpu_.read(lv.u, idx(lv, x, y, z + 1)));
          cpu_.write(lv.tmp, idx(lv, x, y, z), v);
          cpu_.work(cfg.work_per_point);
        }
      }
    }
    barrier.arrive(cpu_);
    for (std::size_t z = std::max<std::size_t>(z_lo(lv), 1);
         z < std::min(z_hi(lv), n - 1); ++z) {
      for (std::size_t y = 1; y + 1 < n; ++y) {
        for (std::size_t x = 1; x + 1 < n; ++x) {
          cpu_.write(lv.u, idx(lv, x, y, z),
                     cpu_.read(lv.tmp, idx(lv, x, y, z)));
          cpu_.work(2);
        }
      }
    }
    barrier.arrive(cpu_);
  }

  void residual(SimLevel& lv) {
    auto& cpu_ = cpu;
    const std::size_t n = lv.n;
    for (std::size_t z = std::max<std::size_t>(z_lo(lv), 1);
         z < std::min(z_hi(lv), n - 1); ++z) {
      for (std::size_t y = 1; y + 1 < n; ++y) {
        for (std::size_t x = 1; x + 1 < n; ++x) {
          const double v = residual_point(
              cpu_.read(lv.u, idx(lv, x, y, z)),
              cpu_.read(lv.r, idx(lv, x, y, z)),
              cpu_.read(lv.u, idx(lv, x - 1, y, z)),
              cpu_.read(lv.u, idx(lv, x + 1, y, z)),
              cpu_.read(lv.u, idx(lv, x, y - 1, z)),
              cpu_.read(lv.u, idx(lv, x, y + 1, z)),
              cpu_.read(lv.u, idx(lv, x, y, z - 1)),
              cpu_.read(lv.u, idx(lv, x, y, z + 1)));
          cpu_.write(lv.tmp, idx(lv, x, y, z), v);
          cpu_.work(cfg.work_per_point);
        }
      }
    }
    barrier.arrive(cpu_);
  }

  void vcycle(unsigned l) {
    SimLevel& f = L[l];
    for (unsigned s = 0; s < cfg.smooth_steps; ++s) smooth(f);
    if (l == 1) return;
    residual(f);
    SimLevel& c = L[l - 1];
    const std::size_t cn = c.n;
    // Restrict (coarse slab owners pull from the fine grid).
    for (std::size_t z = z_lo(c); z < z_hi(c); ++z) {
      for (std::size_t y = 0; y < cn; ++y) {
        for (std::size_t x = 0; x < cn; ++x) {
          double acc = 0;
          for (std::size_t d = 0; d < 8; ++d) {
            acc += cpu.read(f.tmp, idx(f, 2 * x + (d & 1),
                                       2 * y + ((d >> 1) & 1),
                                       2 * z + (d >> 2)));
          }
          cpu.write(c.r, idx(c, x, y, z), 0.125 * acc);
          cpu.write(c.u, idx(c, x, y, z), 0.0);
          cpu.work(cfg.work_per_point);
        }
      }
    }
    barrier.arrive(cpu);
    vcycle(l - 1);
    // Prolongate (coarse owners push into the fine grid).
    for (std::size_t z = z_lo(c); z < z_hi(c); ++z) {
      for (std::size_t y = 0; y < cn; ++y) {
        for (std::size_t x = 0; x < cn; ++x) {
          const double corr = cpu.read(c.u, idx(c, x, y, z));
          for (std::size_t d = 0; d < 8; ++d) {
            const std::size_t fi = idx(f, 2 * x + (d & 1),
                                       2 * y + ((d >> 1) & 1),
                                       2 * z + (d >> 2));
            cpu.write(f.u, fi, cpu.read(f.u, fi) + corr);
          }
          cpu.work(cfg.work_per_point);
        }
      }
    }
    barrier.arrive(cpu);
    for (unsigned s = 0; s < cfg.smooth_steps; ++s) smooth(f);
  }
};

}  // namespace

MgResult run_mg(machine::Machine& m, const MgConfig& cfg) {
  const unsigned levels = cfg.log2_n;
  const unsigned nproc = m.nproc();
  std::vector<SimLevel> L(levels + 1);
  for (unsigned l = 1; l <= levels; ++l) {
    L[l].n = 1ull << l;
    const std::size_t p = L[l].n * L[l].n * L[l].n;
    L[l].u = m.alloc<double>("mg.u" + std::to_string(l), p);
    L[l].r = m.alloc<double>("mg.r" + std::to_string(l), p);
    L[l].tmp = m.alloc<double>("mg.t" + std::to_string(l), p);
  }
  {
    std::vector<double> rhs(L[levels].n * L[levels].n * L[levels].n, 0.0);
    fill_rhs(rhs, L[levels].n, cfg.seed);
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      L[levels].r.set_value(i, rhs[i]);
    }
  }

  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);
  MgResult out;
  {
    double s = 0;
    for (std::size_t i = 0; i < L[levels].r.size(); ++i) {
      const double v = L[levels].r.value(i);
      s += v * v;
    }
    out.initial_residual = std::sqrt(s);
  }

  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes
  m.run([&](machine::Cpu& cpu) {
    // Warm-up: own my slabs at every level.
    for (unsigned l = 1; l <= levels; ++l) {
      const std::size_t n = L[l].n;
      const std::size_t lo = n * cpu.id() / nproc;
      const std::size_t hi = n * (cpu.id() + 1) / nproc;
      for (std::size_t z = lo; z < hi; ++z) {
        cpu.read_range(L[l].u.addr((z * n) * n), n * n * sizeof(double));
        cpu.read_range(L[l].r.addr((z * n) * n), n * n * sizeof(double));
      }
    }
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    MgContext ctx{cpu, L, cfg, *barrier, nproc, cpu.id()};
    for (unsigned c = 0; c < cfg.v_cycles; ++c) ctx.vcycle(levels);

    cell_seconds[cpu.id()] = cpu.seconds() - t0;

    // Final residual, computed in simulation (cell 0 reduces host-side
    // below from tmp).
    ctx.residual(L[levels]);
  });
  out.seconds = *std::max_element(cell_seconds.begin(), cell_seconds.end());

  double s = 0, checksum = 0;
  const std::size_t n = L[levels].n;
  for (std::size_t z = 1; z + 1 < n; ++z) {
    for (std::size_t y = 1; y + 1 < n; ++y) {
      for (std::size_t x = 1; x + 1 < n; ++x) {
        const double v = L[levels].tmp.value((z * n + y) * n + x);
        s += v * v;
      }
    }
  }
  for (std::size_t i = 0; i < L[levels].u.size(); ++i) {
    checksum += L[levels].u.value(i);
  }
  out.final_residual = std::sqrt(s);
  out.checksum = checksum;
  return out;
}

}  // namespace ksr::nas
