#include "ksr/nas/cg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ksr/sim/rng.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/padded.hpp"

namespace ksr::nas {

namespace {

/// Balanced contiguous row partition by nonzero count.
std::vector<std::size_t> partition_rows(const std::vector<std::size_t>& row_start,
                                        unsigned nproc) {
  const std::size_t n = row_start.size() - 1;
  const std::size_t nnz = row_start[n];
  std::vector<std::size_t> bounds(nproc + 1, n);
  bounds[0] = 0;
  std::size_t row = 0;
  for (unsigned p = 1; p < nproc; ++p) {
    const std::size_t target = nnz * p / nproc;
    while (row < n && row_start[row] < target) ++row;
    bounds[p] = row;
  }
  bounds[nproc] = n;
  return bounds;
}

}  // namespace

SparseSystem make_sparse_system(const CgConfig& cfg) {
  SparseSystem s;
  s.n = cfg.n;
  sim::Rng rng(cfg.seed);

  // Random symmetric pattern with diagonal dominance (=> SPD).
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    const std::size_t offdiag = cfg.nnz_per_row / 2;
    for (std::size_t k = 0; k < offdiag; ++k) {
      const auto j = static_cast<std::uint32_t>(rng.below(cfg.n));
      if (j == i) continue;
      const double v = 0.5 * rng.uniform();
      rows[i].emplace_back(j, v);
      rows[j].emplace_back(static_cast<std::uint32_t>(i), v);
    }
  }
  s.row_start.assign(cfg.n + 1, 0);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    auto& r = rows[i];
    std::sort(r.begin(), r.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Merge duplicates; accumulate the row sum for the dominant diagonal.
    double row_sum = 0;
    std::vector<std::pair<std::uint32_t, double>> merged;
    for (const auto& [j, v] : r) {
      if (!merged.empty() && merged.back().first == j) {
        merged.back().second += v;
      } else {
        merged.emplace_back(j, v);
      }
    }
    for (const auto& [j, v] : merged) row_sum += std::fabs(v);

    s.row_start[i + 1] = s.row_start[i] + merged.size() + 1;  // + diagonal
    bool diag_done = false;
    for (const auto& [j, v] : merged) {
      if (!diag_done && j > i) {
        s.col_index.push_back(static_cast<std::uint32_t>(i));
        s.values.push_back(row_sum + 1.0);
        diag_done = true;
      }
      s.col_index.push_back(j);
      s.values.push_back(v);
    }
    if (!diag_done) {
      s.col_index.push_back(static_cast<std::uint32_t>(i));
      s.values.push_back(row_sum + 1.0);
    }
  }
  s.b.assign(cfg.n, 1.0);
  return s;
}

CgResult cg_reference(const CgConfig& cfg) {
  const SparseSystem s = make_sparse_system(cfg);
  const std::size_t n = s.n;
  std::vector<double> x(n, 0.0), r = s.b, p = s.b, q(n, 0.0);

  auto dot = [&](const std::vector<double>& u, const std::vector<double>& v) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc += u[i] * v[i];
    return acc;
  };

  CgResult out;
  out.nnz = s.values.size();
  double rho = dot(r, r);
  out.initial_residual = std::sqrt(rho);
  for (unsigned it = 0; it < cfg.iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0;
      for (std::size_t k = s.row_start[i]; k < s.row_start[i + 1]; ++k) {
        acc += s.values[k] * p[s.col_index[k]];
      }
      q[i] = acc;
    }
    const double alpha = rho / dot(p, q);
    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i];
    for (std::size_t i = 0; i < n; ++i) r[i] -= alpha * q[i];
    const double rho_new = dot(r, r);
    const double beta = rho_new / rho;
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
  }
  out.final_residual = std::sqrt(rho);
  return out;
}

CgResult run_cg(machine::Machine& m, const CgConfig& cfg) {
  const SparseSystem s = make_sparse_system(cfg);
  const std::size_t n = s.n;
  const unsigned nproc = m.nproc();

  // Shared state. Matrix arrays are written host-side (they are inputs);
  // ownership is established by each worker's warm-up touch of its slice.
  auto a = m.alloc<double>("cg.a", s.values.size());
  auto col = m.alloc<std::uint32_t>("cg.col", s.values.size());
  auto row_start = m.alloc<std::uint64_t>("cg.rows", n + 1);
  auto vx = m.alloc<double>("cg.x", n);
  auto vr = m.alloc<double>("cg.r", n);
  auto vp = m.alloc<double>("cg.p", n);
  auto vq = m.alloc<double>("cg.q", n);
  auto vb = m.alloc<double>("cg.b", n);
  auto scalars = m.alloc<double>("cg.scalars", 4);  // rho, alpha, beta, rho0
  for (std::size_t k = 0; k < s.values.size(); ++k) {
    a.set_value(k, s.values[k]);
    col.set_value(k, s.col_index[k]);
  }
  for (std::size_t i = 0; i <= n; ++i) row_start.set_value(i, s.row_start[i]);
  for (std::size_t i = 0; i < n; ++i) vb.set_value(i, s.b[i]);

  const std::vector<std::size_t> bounds = partition_rows(s.row_start, nproc);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);

  // Column-format partition (by matrix column; the CSR of a symmetric matrix
  // doubles as its CSC, so the same arrays serve both layouts).
  const bool column_format = cfg.format == SparseFormat::kColumnMajor;

  CgResult out;
  out.nnz = s.values.size();
  std::vector<double> cell_seconds(nproc, 0.0);  // no cross-thread writes

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t lo = bounds[me];
    const std::size_t hi = bounds[me + 1];

    // ---- Warm-up (untimed): claim ownership of my matrix slice; cell 0
    // initialises the vectors (it runs the serial sections).
    for (std::size_t i = lo; i < hi; ++i) {
      (void)cpu.read(row_start, i);
      for (std::size_t k = s.row_start[i]; k < s.row_start[i + 1]; ++k) {
        (void)cpu.read(a, k);
        (void)cpu.read(col, k);
      }
    }
    if (me == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const double bi = cpu.read(vb, i);
        cpu.write(vx, i, 0.0);
        cpu.write(vr, i, bi);
        cpu.write(vp, i, bi);
        cpu.write(vq, i, 0.0);
        cpu.work(4);
      }
      double rho = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double ri = cpu.read(vr, i);
        rho += ri * ri;
        cpu.work(2);
      }
      cpu.write(scalars, 0, rho);
      out.initial_residual = std::sqrt(rho);
    }
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    for (unsigned it = 0; it < cfg.iterations; ++it) {
      // The p vector was rewritten by cell 0 in the previous serial
      // section; prefetch it before the mat-vec instead of taking a demand
      // miss on every indirection (the paper's "extensive" prefetch use).
      if (cfg.use_prefetch && me != 0 && lo < hi) {
        const unsigned depth = m.config().prefetch_depth;
        unsigned issued = 0;
        for (mem::Sva a = vp.addr(0); a < vp.addr(n);
             a += mem::kSubPageBytes) {
          cpu.prefetch(a);
          if (++issued % depth == 0) cpu.work(190);
        }
      }
      // ---- Parallel sparse mat-vec: q = A p ----
      if (!column_format) {
        // Row format (Fig. 7): each processor produces its slice of q with
        // no synchronization.
        mem::Sva last_subpage = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto k0 = cpu.read(row_start, i);
          const auto k1 = cpu.read(row_start, i + 1);
          double acc = 0;
          for (std::uint64_t k = k0; k < k1; ++k) {
            const std::uint32_t j = cpu.read(col, k);
            acc += cpu.read(a, k) * cpu.read(vp, j);
            cpu.work(cfg.work_per_nnz);
          }
          cpu.write(vq, i, acc);
          if (cfg.use_poststore) {
            const mem::Sva sp = mem::subpage_of(vq.addr(i));
            if (sp != last_subpage && last_subpage != 0) {
              cpu.post_store(mem::subpage_base(last_subpage));
            }
            last_subpage = sp;
          }
        }
        if (cfg.use_poststore && last_subpage != 0) {
          cpu.post_store(mem::subpage_base(last_subpage));
        }
      } else {
        // Original column format: scatter updates into q need a lock per
        // touched sub-page — the synchronization the paper's conversion
        // eliminates. Cell 0 zeroes q first.
        if (me == 0) {
          for (std::size_t i = 0; i < n; ++i) cpu.write(vq, i, 0.0);
        }
        barrier->arrive(cpu);
        for (std::size_t j = lo; j < hi; ++j) {  // my columns
          const auto k0 = cpu.read(row_start, j);
          const auto k1 = cpu.read(row_start, j + 1);
          const double pj = cpu.read(vp, j);
          for (std::uint64_t k = k0; k < k1; ++k) {
            const std::uint32_t i = cpu.read(col, k);
            const mem::Sva qa = vq.addr(i);
            cpu.get_subpage(qa);
            cpu.write(vq, i, cpu.read(vq, i) + cpu.read(a, k) * pj);
            cpu.release_subpage(qa);
            cpu.work(cfg.work_per_nnz);
          }
        }
      }
      barrier->arrive(cpu);

      // ---- Serial section on cell 0 (as in the paper: only the mat-vec
      // was parallelised). More processors => more of q is remote here.
      if (me == 0) {
        const double rho = cpu.read(scalars, 0);
        double pq = 0;
        for (std::size_t i = 0; i < n; ++i) {
          pq += cpu.read(vp, i) * cpu.read(vq, i);
          cpu.work(2);
        }
        const double alpha = rho / pq;
        double rho_new = 0;
        for (std::size_t i = 0; i < n; ++i) {
          cpu.write(vx, i, cpu.read(vx, i) + alpha * cpu.read(vp, i));
          const double ri = cpu.read(vr, i) - alpha * cpu.read(vq, i);
          cpu.write(vr, i, ri);
          rho_new += ri * ri;
          cpu.work(6);
        }
        const double beta = rho_new / rho;
        for (std::size_t i = 0; i < n; ++i) {
          cpu.write(vp, i, cpu.read(vr, i) + beta * cpu.read(vp, i));
          cpu.work(3);
        }
        cpu.write(scalars, 0, rho_new);
      }
      barrier->arrive(cpu);
    }

    cell_seconds[me] = cpu.seconds() - t0;
  });

  out.seconds = *std::max_element(cell_seconds.begin(), cell_seconds.end());
  out.final_residual = std::sqrt(scalars.value(0));
  return out;
}

}  // namespace ksr::nas
