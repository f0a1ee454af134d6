#include "ksr/serve/job.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/nas/bt.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/nas/ep.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/nas/sp.hpp"

namespace ksr::serve {

namespace {

struct MachinePreset {
  const char* name;
  machine::MachineConfig (*make)(unsigned nproc);
};

constexpr MachinePreset kMachines[] = {
    {"ksr1", &machine::MachineConfig::ksr1},
    {"ksr2", &machine::MachineConfig::ksr2},
    {"symmetry", &machine::MachineConfig::symmetry},
    {"butterfly", &machine::MachineConfig::butterfly},
};

// The JobSpec field table: the one list of fields behind canonical(),
// to_json(), from_json() and flags(). Order is the canonical key order, so
// a row must never move. The CLI flag is the JSON name with '_' -> '-'
// unless spelled out; a "no-" flag clears its bool.
struct Field {
  const char* json;
  const char* cli;  // nullptr = derived from `json`
  std::variant<std::string JobSpec::*, unsigned JobSpec::*,
               std::uint64_t JobSpec::*, bool JobSpec::*>
      member;
  const char* help;
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
    {"n", nullptr, &JobSpec::n, "N  cg/sp/bt: problem size"},
    {"nnz_per_row", nullptr, &JobSpec::nnz_per_row, "N  cg: nonzeros per row"},
    {"iters", nullptr, &JobSpec::iters, "N  cg/sp/bt: iterations"},
    {"log2_pairs", nullptr, &JobSpec::log2_pairs, "N  ep: log2 pair count"},
    {"restore_from", nullptr, &JobSpec::restore_from,
     "FILE  start from this warm-up checkpoint (is only)"},
};

template <typename Table>
auto find_named(const Table& table, const std::string& name)
    -> decltype(&*std::begin(table)) {
  for (const auto& e : table) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

/// "unknown <what> '<name>' (expected a|b|c)", listing the table's names.
template <typename Table>
std::string unknown(const char* what, const std::string& name,
                    const Table& table) {
  std::string s = std::string("unknown ") + what + " '" + name +
                  "' (expected ";
  for (const auto& e : table) {
    s += e.name;
    s += '|';
  }
  s.back() = ')';
  return s;
}

// ---- The workload registry rows. Each run function reads resolved sizes.

void run_ep_job(machine::Machine& m, const JobSpec& s, Json& r) {
  nas::EpConfig c;
  c.log2_pairs = s.log2_pairs;
  if (s.seed != 0) c.seed = s.seed;
  const nas::EpResult res = run_ep(m, c);
  r.set("seconds", Json::real(res.seconds));
  r.set("accepted", Json::uint(res.accepted));
  r.set("sum_x", Json::real(res.sum_x));
  r.set("sum_y", Json::real(res.sum_y));
}

void run_cg_job(machine::Machine& m, const JobSpec& s, Json& r) {
  nas::CgConfig c;
  c.n = s.n;
  c.nnz_per_row = s.nnz_per_row;
  c.iterations = s.iters;
  if (s.seed != 0) c.seed = s.seed;
  const nas::CgResult res = run_cg(m, c);
  r.set("seconds", Json::real(res.seconds));
  r.set("initial_residual", Json::real(res.initial_residual));
  r.set("final_residual", Json::real(res.final_residual));
  r.set("nnz", Json::uint(res.nnz));
}

nas::IsConfig is_config(const JobSpec& s) {
  nas::IsConfig c;
  c.log2_keys = s.log2_keys;
  c.log2_buckets = s.log2_buckets;
  c.pad_buckets = s.pad_buckets;
  if (s.seed != 0) c.seed = s.seed;
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

void run_sp_job(machine::Machine& m, const JobSpec& s, Json& r) {
  nas::SpConfig c;
  c.n = s.n;
  c.iterations = s.iters;
  const nas::SpResult res = run_sp(m, c);
  r.set("seconds", Json::real(res.total_seconds));
  r.set("seconds_per_iteration", Json::real(res.seconds_per_iteration));
  r.set("checksum", Json::real(res.checksum));
}

void run_bt_job(machine::Machine& m, const JobSpec& s, Json& r) {
  nas::BtConfig c;
  c.n = s.n;
  c.iterations = s.iters;
  const nas::BtResult res = run_bt(m, c);
  r.set("seconds", Json::real(res.total_seconds));
  r.set("seconds_per_iteration", Json::real(res.seconds_per_iteration));
  r.set("checksum", Json::real(res.checksum));
}

/// `spec` with every size field its workload uses resolved to the
/// registry default when left at 0. Throws on an unknown workload.
JobSpec resolved(const JobSpec& spec, const Workload** entry) {
  *entry = find_named(workloads(), spec.workload);
  if (*entry == nullptr) {
    throw std::invalid_argument(unknown("workload", spec.workload,
                                        workloads()));
  }
  JobSpec s = spec;
  for (const Workload::Size& size : (*entry)->sizes) {
    if (s.*size.member == 0) s.*size.member = size.value;
  }
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"ep", {{&JobSpec::log2_pairs, 13}}, &run_ep_job},
      {"cg",
       {{&JobSpec::n, 1000}, {&JobSpec::nnz_per_row, 24}, {&JobSpec::iters, 4}},
       &run_cg_job},
      {"is",
       {{&JobSpec::log2_keys, 15}, {&JobSpec::log2_buckets, 10}},
       &run_is_job,
       &warm_up_is},
      {"sp", {{&JobSpec::n, 16}, {&JobSpec::iters, 2}}, &run_sp_job},
      {"bt", {{&JobSpec::n, 10}, {&JobSpec::iters, 2}}, &run_bt_job},
  };
  return table;
}

machine::MachineConfig JobSpec::machine_config(unsigned sim_threads) const {
  const MachinePreset* preset = find_named(kMachines, machine);
  if (preset == nullptr) {
    throw std::invalid_argument(unknown("machine", machine, kMachines));
  }
  machine::MachineConfig cfg = preset->make(procs);
  if (scale > 1) cfg = cfg.scaled_by(scale);
  if (!snarf) cfg.read_snarfing = false;
  cfg.sched_fuzz_seed = fuzz_seed;
  cfg.sim_threads = sim_threads;
  if (cells_per_leaf != 0) cfg.cells_per_leaf = cells_per_leaf;
  cfg.cells_per_domain = cells_per_domain;
  return cfg;
}

std::string JobSpec::validate() const {
  if (find_named(kMachines, machine) == nullptr) {
    return unknown("machine", machine, kMachines);
  }
  const Workload* w = find_named(workloads(), workload);
  if (w == nullptr) return unknown("workload", workload, workloads());
  if (procs == 0) return "procs must be >= 1";
  if (scale == 0) return "scale must be >= 1";
  if (!restore_from.empty() && w->warmup == nullptr) {
    return "restore_from needs a workload with a warm-up checkpoint "
           "boundary; '" + workload + "' has none";
  }
  try {
    machine_config(1).validate();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

std::string JobSpec::canonical() const {
  // Fixed field order, every field always present. This string — not the
  // JSON spelling the client sent — is what the cache key hashes and what
  // each store file records for verification, so field-order or whitespace
  // differences between clients can never split or alias a cache slot.
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

Json JobSpec::to_json() const {
  Json j = Json::object();
  for (const Field& f : kFields) {
    std::visit(
        [&](auto member) {
          const auto& v = this->*member;
          using T = std::decay_t<decltype(v)>;
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
