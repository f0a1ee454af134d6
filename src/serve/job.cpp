#include "ksr/serve/job.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/nas/bt.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/nas/ep.hpp"
#include "ksr/nas/ft.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/nas/lu.hpp"
#include "ksr/nas/mg.hpp"
#include "ksr/nas/sp.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"

namespace ksr::serve {

namespace {

// The JobSpec field table: the one list of fields behind canonical(),
// to_json(), from_json() and flags(). Order is the canonical key order, so
// a row must never move. A new row is appended with `appended` set:
// canonical() and to_json() leave it out while it is at its default, so a
// spec that never sets it keeps the bytes, and the cache key, it had before
// the row existed. The CLI flag is the JSON name with '_' -> '-' unless
// spelled out; a "no-" flag clears its bool.
struct Field {
  const char* json;
  const char* cli;  // nullptr = derived from `json`
  std::variant<std::string JobSpec::*, unsigned JobSpec::*,
               std::uint64_t JobSpec::*, bool JobSpec::*>
      member;
  const char* help;
  bool appended = false;
};

const Field kFields[] = {
    {"machine", nullptr, &JobSpec::machine,
     "M  ksr1|ksr2|symmetry|butterfly (default ksr1)"},
    {"procs", nullptr, &JobSpec::procs, "P  simulated cells"},
    {"scale", nullptr, &JobSpec::scale, "N  shrink caches by N"},
    {"snarf", "no-snarf", &JobSpec::snarf, "disable read-snarfing"},
    {"fuzz_seed", nullptr, &JobSpec::fuzz_seed,
     "N  perturb tie-breaks and ring phases (0 = reference)"},
    {"cells_per_leaf", nullptr, &JobSpec::cells_per_leaf,
     "N  cells per leaf ring (0 = the machine preset)"},
    {"cells_per_domain", nullptr, &JobSpec::cells_per_domain,
     "N  cells per simulation domain (0 = one domain)"},
    {"workload", "name", &JobSpec::workload, "K  workload (sizes below)"},
    {"seed", nullptr, &JobSpec::seed, "N  kernel input seed (0 = published)"},
    {"log2_keys", nullptr, &JobSpec::log2_keys, "N  is: log2 key count"},
    {"log2_buckets", nullptr, &JobSpec::log2_buckets,
     "N  is: log2 bucket count"},
    {"pad_buckets", nullptr, &JobSpec::pad_buckets,
     "is: pad per-cpu buckets to sub-page boundaries"},
    {"n", nullptr, &JobSpec::n, "N  problem size (mg/ft: a power of two)"},
    {"nnz_per_row", nullptr, &JobSpec::nnz_per_row, "N  cg: nonzeros per row"},
    {"iters", nullptr, &JobSpec::iters,
     "N  iterations (mg: V-cycles; barrier: episodes; lock: ops per cell)"},
    {"log2_pairs", nullptr, &JobSpec::log2_pairs, "N  ep: log2 pair count"},
    {"restore_from", nullptr, &JobSpec::restore_from,
     "FILE  start from this warm-up checkpoint (is only)"},
    {"kind", nullptr, &JobSpec::kind,
     "K  barrier/lock algorithm or NAS variant (an unknown one lists all)",
     true},
    {"read_pct", nullptr, &JobSpec::read_pct,
     "N  lock rw: percentage of reads (0-100)", true},
};

/// The registry row `name` names. Throws std::invalid_argument listing
/// every row on an unknown name.
const Workload& workload_named(const std::string& name) {
  std::string names;
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
    if (!names.empty()) names += '|';
    names += w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (expected " +
                              names + ")");
}

// ---- The workload registry rows. Each run function reads resolved sizes.
//
// A NAS row's kernel configuration comes from its *_config() function, the
// one place a spec maps to a kernel config. An empty kind keeps the
// kernel's defaults; a named kind is one of the configurations the paper's
// tables ablate.

/// Throws std::invalid_argument listing the spellings unless `s.kind` is
/// empty or one of `kinds`.
void expect_kind(const JobSpec& s, std::initializer_list<const char*> kinds) {
  std::string names;
  for (const char* k : kinds) {
    if (s.kind == k) return;
    if (!names.empty()) names += '|';
    names += k;
  }
  if (s.kind.empty()) return;
  throw std::invalid_argument(
      names.empty() ? s.workload + " takes no kind (got '" + s.kind + "')"
                    : "unknown " + s.workload + " kind '" + s.kind +
                          "' (empty for the default, or " + names + ")");
}

/// log2 of the grid edge `s.n`, which mg and ft take as a power of two.
unsigned log2_edge(const JobSpec& s) {
  if (s.n < 2 || !std::has_single_bit(s.n)) {
    throw std::invalid_argument(s.workload +
                                ": n is the grid edge and must be a power "
                                "of two >= 2 (got " +
                                std::to_string(s.n) + ")");
  }
  return static_cast<unsigned>(std::countr_zero(s.n));
}

/// A row's validation: its config function throws on what it cannot map.
template <auto Config>
void check_config(const JobSpec& s) {
  (void)Config(s);
}

nas::EpConfig ep_config(const JobSpec& s) {
  expect_kind(s, {});
  nas::EpConfig c;
  c.log2_pairs = s.log2_pairs;
  if (s.seed != 0) c.seed = s.seed;
  return c;
}

void run_ep_job(machine::Machine& m, const JobSpec& s, Json& r) {
  const nas::EpResult res = run_ep(m, ep_config(s));
  r.set("seconds", Json::real(res.seconds));
  r.set("accepted", Json::uint(res.accepted));
  r.set("sum_x", Json::real(res.sum_x));
  r.set("sum_y", Json::real(res.sum_y));
  Json counts = Json::array();
  for (std::uint64_t c : res.annulus_counts) counts.push(Json::uint(c));
  r.set("annulus_counts", std::move(counts));
}

nas::CgConfig cg_config(const JobSpec& s) {
  expect_kind(s, {"poststore", "no-prefetch", "column-major"});
  if (s.n < 3 || s.nnz_per_row < 2) {
    // Such a system is solved exactly before the last iteration, whose step
    // then divides 0 by 0.
    throw std::invalid_argument(
        "cg needs n >= 3 and nnz_per_row >= 2 (got n " + std::to_string(s.n) +
        ", nnz_per_row " + std::to_string(s.nnz_per_row) + ")");
  }
  nas::CgConfig c;
  c.n = s.n;
  c.nnz_per_row = s.nnz_per_row;
  c.iterations = s.iters;
  if (s.seed != 0) c.seed = s.seed;
  if (s.kind == "poststore") c.use_poststore = true;
  if (s.kind == "no-prefetch") c.use_prefetch = false;
  if (s.kind == "column-major") c.format = nas::SparseFormat::kColumnMajor;
  return c;
}

void run_cg_job(machine::Machine& m, const JobSpec& s, Json& r) {
  const nas::CgResult res = run_cg(m, cg_config(s));
  r.set("seconds", Json::real(res.seconds));
  r.set("initial_residual", Json::real(res.initial_residual));
  r.set("final_residual", Json::real(res.final_residual));
  r.set("nnz", Json::uint(res.nnz));
}

nas::IsConfig is_config(const JobSpec& s) {
  expect_kind(s, {"no-prefetch"});
  nas::IsConfig c;
  c.log2_keys = s.log2_keys;
  c.log2_buckets = s.log2_buckets;
  c.pad_buckets = s.pad_buckets;
  if (s.seed != 0) c.seed = s.seed;
  if (s.kind == "no-prefetch") c.use_prefetch = false;
  return c;
}

void warm_up_is(machine::Machine& m, const JobSpec& s) {
  nas::IsSplit(m, is_config(s)).run_warmup();
}

void run_is_job(machine::Machine& m, const JobSpec& s, Json& r) {
  nas::IsResult res;
  if (s.restore_from.empty()) {
    res = run_is(m, is_config(s));
  } else {
    // Split-phase flow (docs/CHECKPOINT.md): restore the warm-up boundary
    // instead of simulating the warm-up, then run the timed phases.
    nas::IsSplit split(m, is_config(s));
    m.restore_from(s.restore_from);
    res = split.run_ranked();
  }
  r.set("seconds", Json::real(res.seconds));
  r.set("ranks_valid", Json::boolean(res.ranks_valid));
  r.set("serial_phase_seconds", Json::real(res.serial_phase_seconds));
}

// The kinds are Table 4's cumulative ladder; padded-prefetch is Table 3's
// configuration.
nas::SpConfig sp_config(const JobSpec& s) {
  expect_kind(s, {"padded", "padded-prefetch", "padded-prefetch-poststore"});
  if (s.n < 2) {  // the line solves run back from n - 2
    throw std::invalid_argument("sp needs n >= 2 (got " +
                                std::to_string(s.n) + ")");
  }
  nas::SpConfig c;
  c.n = s.n;
  c.iterations = s.iters;
  c.padded_layout = !s.kind.empty();
  c.use_prefetch = s.kind.starts_with("padded-prefetch");
  c.use_poststore = s.kind == "padded-prefetch-poststore";
  return c;
}

/// The row of an iterative NAS application (sp, bt, lu): `Kernel` on the
/// config `Config` maps the spec to.
template <auto Config, auto Kernel>
void run_app_job(machine::Machine& m, const JobSpec& s, Json& r) {
  const auto res = Kernel(m, Config(s));
  r.set("seconds", Json::real(res.total_seconds));
  r.set("seconds_per_iteration", Json::real(res.seconds_per_iteration));
  r.set("checksum", Json::real(res.checksum));
}

nas::BtConfig bt_config(const JobSpec& s) {
  expect_kind(s, {"prefetch"});
  nas::BtConfig c;
  c.n = s.n;
  c.iterations = s.iters;
  c.use_prefetch = s.kind == "prefetch";
  return c;
}

nas::MgConfig mg_config(const JobSpec& s) {
  expect_kind(s, {});
  nas::MgConfig c;
  c.log2_n = log2_edge(s);
  c.v_cycles = s.iters;
  if (s.seed != 0) c.seed = s.seed;
  return c;
}

void run_mg_job(machine::Machine& m, const JobSpec& s, Json& r) {
  const nas::MgResult res = run_mg(m, mg_config(s));
  r.set("seconds", Json::real(res.seconds));
  r.set("initial_residual", Json::real(res.initial_residual));
  r.set("final_residual", Json::real(res.final_residual));
  r.set("checksum", Json::real(res.checksum));
}

nas::FtConfig ft_config(const JobSpec& s) {
  expect_kind(s, {});
  nas::FtConfig c;
  c.log2_n = log2_edge(s);
  c.iterations = s.iters;
  if (s.seed != 0) c.seed = s.seed;
  return c;
}

void run_ft_job(machine::Machine& m, const JobSpec& s, Json& r) {
  const nas::FtResult res = run_ft(m, ft_config(s));
  r.set("seconds", Json::real(res.seconds));
  r.set("checksum", Json::real(res.checksum));
  r.set("roundtrip_error", Json::real(res.roundtrip_error));
}

nas::LuConfig lu_config(const JobSpec& s) {
  expect_kind(s, {"no-poststore"});
  nas::LuConfig c;
  c.n = s.n;
  c.iterations = s.iters;
  if (s.kind == "no-poststore") c.use_poststore = false;
  return c;
}

void run_probe_job(machine::Machine& m, const JobSpec&, Json& r) {
  auto arr = m.alloc<double>("probe", 4096);
  auto flag = m.alloc<int>("flag", 1);
  double sub = 0, local = 0, remote = 0;
  m.run([&](machine::Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 4096; i += 16) cpu.write(arr, i, 1.0);
      // Sub-cache hit.
      (void)cpu.read(arr, 0);
      double t0 = cpu.seconds();
      for (int k = 0; k < 100; ++k) (void)cpu.read(arr, 0);
      sub = (cpu.seconds() - t0) / 100;
      // Local-cache-ish: stride sub-blocks.
      t0 = cpu.seconds();
      std::size_t k = 0;
      for (std::size_t i = 0; i < 4096; i += 8, ++k) (void)cpu.read(arr, i);
      local = (cpu.seconds() - t0) / static_cast<double>(k);
      cpu.write(flag, 0, 1);
    } else if (cpu.id() == 1) {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      const double t0 = cpu.seconds();
      std::size_t k = 0;
      for (std::size_t i = 0; i < 4096; i += 16, ++k) (void)cpu.read(arr, i);
      remote = (cpu.seconds() - t0) / static_cast<double>(k);
    }
  });
  r.set("subcache_read_seconds", Json::real(sub));
  r.set("local_read_seconds", Json::real(local));
  r.set("remote_read_seconds", Json::real(remote));
}

void check_probe(const JobSpec& s) {
  if (s.procs < 2) {
    throw std::invalid_argument(
        "probe needs procs >= 2 (cell 1 reads what cell 0 wrote)");
  }
}

void run_lock_job(machine::Machine& m, const JobSpec& s, Json& r) {
  r.set("kind", Json::str(s.kind));
  const sync::LockKind kind = sync::lock_kind_named(s.kind);
  r.set("seconds", Json::real(sync::lock_seconds(
                       m, kind, static_cast<int>(s.iters), s.read_pct)));
}

void check_lock(const JobSpec& s) { (void)sync::lock_kind_named(s.kind); }

void run_barrier_job(machine::Machine& m, const JobSpec& s, Json& r) {
  r.set("kind", Json::str(s.kind));
  const sync::BarrierKind kind = sync::barrier_kind_named(s.kind);
  r.set("seconds", Json::real(sync::barrier_episode_seconds(
                       m, kind, static_cast<int>(s.iters))));
  // Machine-wide counters, read after the run while the machine is
  // quiescent.
  const cache::PerfMonitor pmon = m.total_pmon();
  r.set("ring_requests", Json::uint(pmon.ring_requests));
  r.set("ring_nacks", Json::uint(pmon.ring_nacks));
  r.set("invalidations_received", Json::uint(pmon.invalidations_received));
  r.set("snarfs", Json::uint(pmon.snarfs));
  r.set("poststores_issued", Json::uint(pmon.poststores_issued));
}

void check_barrier(const JobSpec& s) {
  (void)sync::barrier_kind_named(s.kind);
}

/// `spec` with every size field its workload uses resolved to the
/// registry default when left at 0, and an empty kind to the registry's.
/// Throws on an unknown workload.
JobSpec resolved(const JobSpec& spec, const Workload** entry) {
  *entry = &workload_named(spec.workload);
  JobSpec s = spec;
  for (const Workload::Size& size : (*entry)->sizes) {
    if (s.*size.member == 0) s.*size.member = size.value;
  }
  if (s.kind.empty() && (*entry)->kind != nullptr) s.kind = (*entry)->kind;
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"ep", {{&JobSpec::log2_pairs, 13}}, &run_ep_job, nullptr, nullptr,
       &check_config<ep_config>},
      {"cg",
       {{&JobSpec::n, 1000}, {&JobSpec::nnz_per_row, 24}, {&JobSpec::iters, 4}},
       &run_cg_job, nullptr, nullptr, &check_config<cg_config>},
      {"is",
       {{&JobSpec::log2_keys, 15}, {&JobSpec::log2_buckets, 10}},
       &run_is_job, &warm_up_is, nullptr, &check_config<is_config>},
      {"sp", {{&JobSpec::n, 16}, {&JobSpec::iters, 2}},
       &run_app_job<sp_config, nas::run_sp>, nullptr, nullptr,
       &check_config<sp_config>},
      {"bt", {{&JobSpec::n, 10}, {&JobSpec::iters, 2}},
       &run_app_job<bt_config, nas::run_bt>, nullptr, nullptr,
       &check_config<bt_config>},
      {"mg", {{&JobSpec::n, 32}, {&JobSpec::iters, 2}}, &run_mg_job, nullptr,
       nullptr, &check_config<mg_config>},
      {"ft", {{&JobSpec::n, 16}, {&JobSpec::iters, 1}}, &run_ft_job, nullptr,
       nullptr, &check_config<ft_config>},
      {"lu", {{&JobSpec::n, 12}, {&JobSpec::iters, 2}},
       &run_app_job<lu_config, nas::run_lu>, nullptr, nullptr,
       &check_config<lu_config>},
      {"probe", {}, &run_probe_job, nullptr, nullptr, &check_probe},
      {"lock", {{&JobSpec::iters, 50}}, &run_lock_job, nullptr, "hw",
       &check_lock},
      {"barrier", {{&JobSpec::iters, 25}}, &run_barrier_job, nullptr,
       "tournament-m", &check_barrier},
  };
  return table;
}

machine::MachineConfig JobSpec::machine_config(unsigned sim_threads) const {
  machine::MachineConfig cfg = machine::MachineConfig::named(machine, procs);
  if (scale > 1) cfg = cfg.scaled_by(scale);
  if (!snarf) cfg.read_snarfing = false;
  cfg.sched_fuzz_seed = fuzz_seed;
  cfg.sim_threads = sim_threads;
  if (cells_per_leaf != 0) cfg.cells_per_leaf = cells_per_leaf;
  cfg.cells_per_domain = cells_per_domain;
  return cfg;
}

std::string JobSpec::validate() const {
  if (procs == 0) return "procs must be >= 1";
  if (scale == 0) return "scale must be >= 1";
  if (read_pct > 100) return "read_pct must be <= 100";
  try {
    const Workload* w = nullptr;
    const JobSpec s = resolved(*this, &w);  // throws on an unknown workload
    if (!restore_from.empty() && w->warmup == nullptr) {
      return "restore_from needs a workload with a warm-up checkpoint "
             "boundary; '" + workload + "' has none";
    }
    machine_config(1).validate();  // throws on an unknown machine, too
    if (w->check != nullptr) w->check(s);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

std::string JobSpec::canonical() const {
  // Fixed field order, every field present (an appended one only when
  // set). This string — not the JSON spelling the client sent — is what
  // the cache key hashes and what each store file records for
  // verification, so field-order or whitespace differences between clients
  // can never split or alias a cache slot.
  std::string c;
  c.reserve(192);
  auto add = [&c](const char* k, const std::string& v) {
    c += k;
    c += '=';
    c += v;
    c += ';';
  };
  for (const Field& f : kFields) {
    std::visit(
        [&](auto member) {
          const auto& v = this->*member;
          using T = std::decay_t<decltype(v)>;
          if (f.appended && v == JobSpec{}.*member) return;
          if constexpr (std::is_same_v<T, bool>) {
            add(f.json, v ? "1" : "0");
          } else if constexpr (!std::is_same_v<T, std::string>) {
            add(f.json, std::to_string(v));
          } else if (&v != &restore_from) {
            add(f.json, v);
          } else if (v.empty()) {
            add("ckpt", "-");
          } else {
            // Content-addressed: the preset's bytes, not its path, feed
            // the key — moving the file changes nothing, regenerating it
            // differently misses.
            const std::vector<std::byte> image = ckpt::read_file(v);
            add("ckpt",
                CacheKey{ckpt::fnv1a(image.data(), image.size())}.hex());
          }
        },
        f.member);
  }
  return c;
}

namespace {

/// The spec's fields by JSON name in canonical order; an appended field at
/// its default only when `every_field`.
Json fields_json(const JobSpec& s, bool every_field) {
  Json j = Json::object();
  for (const Field& f : kFields) {
    std::visit(
        [&](auto member) {
          const auto& v = s.*member;
          using T = std::decay_t<decltype(v)>;
          if (!every_field && f.appended && v == JobSpec{}.*member) return;
          if constexpr (std::is_same_v<T, bool>) {
            j.set(f.json, Json::boolean(v));
          } else if constexpr (std::is_same_v<T, std::string>) {
            j.set(f.json, Json::str(v));
          } else {
            j.set(f.json, Json::uint(v));
          }
        },
        f.member);
  }
  return j;
}

}  // namespace

Json JobSpec::to_json() const { return fields_json(*this, false); }

Json JobSpec::all_fields() const { return fields_json(*this, true); }

bool JobSpec::from_json(const Json& j, JobSpec* out, std::string* err) {
  if (!j.is_object()) {
    *err = "job spec must be a JSON object";
    return false;
  }
  JobSpec s;
  for (const auto& [key, v] : j.members()) {
    const auto f = std::find_if(std::begin(kFields), std::end(kFields),
                                [&](const Field& r) { return key == r.json; });
    if (f == std::end(kFields)) {
      *err = "unknown job field '" + key + "'";
      return false;
    }
    const char* want = std::visit(
        [&](auto member) -> const char* {
          auto& field = s.*member;
          using T = std::decay_t<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            if (v.kind() != Json::Kind::kBool) return "a boolean";
            field = v.as_bool();
          } else if constexpr (std::is_same_v<T, std::string>) {
            if (!v.is_string()) return "a string";
            field = v.as_string();
          } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            if (!v.as_u64(&field)) return "a non-negative integer";
          } else {
            std::uint64_t u = 0;
            if (!v.as_u64(&u) || u > 0xffffffffull) {
              return "a 32-bit non-negative integer";
            }
            field = static_cast<unsigned>(u);
          }
          return nullptr;
        },
        f->member);
    if (want != nullptr) {
      *err = "field '" + key + "' must be " + want;
      return false;
    }
  }
  *out = s;
  return true;
}

std::vector<util::Flag> JobSpec::flags() {
  std::vector<util::Flag> rows;
  for (const Field& f : kFields) {
    std::string name = f.cli != nullptr ? f.cli : f.json;
    std::replace(name.begin(), name.end(), '_', '-');
    util::Flag row{name, {}, f.help};
    std::visit([&](auto member) { row.target = &(this->*member); }, f.member);
    row.bool_value = name.rfind("no-", 0) != 0;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string CacheKey::hex() const {
  char buf[2 * 8 + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

CacheKey derive_key(const JobSpec& spec, std::uint32_t code_version) {
  return derive_key(spec.canonical(), code_version);
}

CacheKey derive_key(std::string bytes, std::uint32_t code_version) {
  bytes += "|code_version=" + std::to_string(code_version);
  bytes += "|ckpt_format=" + std::to_string(ckpt::kVersion);
  return CacheKey{ckpt::fnv1a(
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size())};
}

JobOutcome run_workload(const JobSpec& spec, machine::Machine& m) {
  const Workload* w = nullptr;
  const JobSpec s = resolved(spec, &w);
  Json r = Json::object();
  r.set("workload", Json::str(s.workload));
  r.set("machine", Json::str(s.machine));
  r.set("procs", Json::uint(s.procs));
  w->run(m, s, r);
  for (const auto& [field, v] : r.members()) {
    if (v.kind() == Json::Kind::kDouble && !std::isfinite(v.as_double())) {
      throw std::runtime_error(s.workload + ": result field '" + field +
                               "' is " + v.dump() + ", not a finite number");
    }
  }
  JobOutcome out;
  out.events = m.parallel_engine().events_dispatched();
  r.set("events_dispatched", Json::uint(out.events));
  out.result = r.dump();
  return out;
}

void run_warmup(const JobSpec& spec, machine::Machine& m) {
  const Workload* w = nullptr;
  const JobSpec s = resolved(spec, &w);
  if (w->warmup == nullptr) {
    throw std::invalid_argument("workload '" + s.workload +
                                "' has no warm-up checkpoint boundary");
  }
  w->warmup(m, s);
}

JobOutcome execute(const JobSpec& spec, unsigned sim_threads) {
  const std::string bad = spec.validate();
  if (!bad.empty()) throw std::runtime_error("job: " + bad);
  auto m = machine::make_machine(spec.machine_config(sim_threads));
  return run_workload(spec, *m);
}

}  // namespace ksr::serve
