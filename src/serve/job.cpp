#include "ksr/serve/job.hpp"

#include <cstdio>
#include <iterator>
#include <stdexcept>

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
      {"ep", {{"log2_pairs", &JobSpec::log2_pairs, 13}}, &run_ep_job},
      {"cg",
       {{"n", &JobSpec::n, 1000},
        {"nnz_per_row", &JobSpec::nnz_per_row, 24},
        {"iters", &JobSpec::iters, 4}},
       &run_cg_job},
      {"is",
       {{"log2_keys", &JobSpec::log2_keys, 15},
        {"log2_buckets", &JobSpec::log2_buckets, 10}},
       &run_is_job,
       &warm_up_is},
      {"sp", {{"n", &JobSpec::n, 16}, {"iters", &JobSpec::iters, 2}},
       &run_sp_job},
      {"bt", {{"n", &JobSpec::n, 10}, {"iters", &JobSpec::iters, 2}},
       &run_bt_job},
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
  auto add_u = [&add](const char* k, std::uint64_t v) {
    add(k, std::to_string(v));
  };
  add("machine", machine);
  add_u("procs", procs);
  add_u("scale", scale);
  add_u("snarf", snarf ? 1 : 0);
  add_u("fuzz_seed", fuzz_seed);
  add_u("cells_per_leaf", cells_per_leaf);
  add_u("cells_per_domain", cells_per_domain);
  add("workload", workload);
  add_u("seed", seed);
  add_u("log2_keys", log2_keys);
  add_u("log2_buckets", log2_buckets);
  add_u("pad_buckets", pad_buckets ? 1 : 0);
  add_u("n", n);
  add_u("nnz_per_row", nnz_per_row);
  add_u("iters", iters);
  add_u("log2_pairs", log2_pairs);
  if (restore_from.empty()) {
    add("ckpt", "-");
  } else {
    // Content-addressed: the preset's bytes, not its path, feed the key —
    // moving the file changes nothing, regenerating it differently misses.
    const std::vector<std::byte> image = ckpt::read_file(restore_from);
    char buf[2 * 8 + 1];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      ckpt::fnv1a(image.data(), image.size())));
    add("ckpt", buf);
  }
  return c;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("machine", Json::str(machine));
  j.set("procs", Json::uint(procs));
  j.set("scale", Json::uint(scale));
  j.set("snarf", Json::boolean(snarf));
  j.set("fuzz_seed", Json::uint(fuzz_seed));
  j.set("cells_per_leaf", Json::uint(cells_per_leaf));
  j.set("cells_per_domain", Json::uint(cells_per_domain));
  j.set("workload", Json::str(workload));
  j.set("seed", Json::uint(seed));
  j.set("log2_keys", Json::uint(log2_keys));
  j.set("log2_buckets", Json::uint(log2_buckets));
  j.set("pad_buckets", Json::boolean(pad_buckets));
  j.set("n", Json::uint(n));
  j.set("nnz_per_row", Json::uint(nnz_per_row));
  j.set("iters", Json::uint(iters));
  j.set("log2_pairs", Json::uint(log2_pairs));
  j.set("restore_from", Json::str(restore_from));
  return j;
}

bool JobSpec::from_json(const Json& j, JobSpec* out, std::string* err) {
  if (!j.is_object()) {
    *err = "job spec must be a JSON object";
    return false;
  }
  JobSpec s;
  for (const auto& [key, v] : j.members()) {
    auto want_str = [&](std::string* field) {
      if (!v.is_string()) {
        *err = "field '" + key + "' must be a string";
        return false;
      }
      *field = v.as_string();
      return true;
    };
    auto want_bool = [&](bool* field) {
      if (v.kind() != Json::Kind::kBool) {
        *err = "field '" + key + "' must be a boolean";
        return false;
      }
      *field = v.as_bool();
      return true;
    };
    auto want_u64 = [&](std::uint64_t* field) {
      if (!v.as_u64(field)) {
        *err = "field '" + key + "' must be a non-negative integer";
        return false;
      }
      return true;
    };
    auto want_u32 = [&](unsigned* field) {
      std::uint64_t u = 0;
      if (!v.as_u64(&u) || u > 0xffffffffull) {
        *err = "field '" + key + "' must be a 32-bit non-negative integer";
        return false;
      }
      *field = static_cast<unsigned>(u);
      return true;
    };
    bool ok = true;
    if (key == "machine") ok = want_str(&s.machine);
    else if (key == "procs") ok = want_u32(&s.procs);
    else if (key == "scale") ok = want_u32(&s.scale);
    else if (key == "snarf") ok = want_bool(&s.snarf);
    else if (key == "fuzz_seed") ok = want_u64(&s.fuzz_seed);
    else if (key == "cells_per_leaf") ok = want_u32(&s.cells_per_leaf);
    else if (key == "cells_per_domain") ok = want_u32(&s.cells_per_domain);
    else if (key == "workload") ok = want_str(&s.workload);
    else if (key == "seed") ok = want_u64(&s.seed);
    else if (key == "log2_keys") ok = want_u32(&s.log2_keys);
    else if (key == "log2_buckets") ok = want_u32(&s.log2_buckets);
    else if (key == "pad_buckets") ok = want_bool(&s.pad_buckets);
    else if (key == "n") ok = want_u32(&s.n);
    else if (key == "nnz_per_row") ok = want_u32(&s.nnz_per_row);
    else if (key == "iters") ok = want_u32(&s.iters);
    else if (key == "log2_pairs") ok = want_u32(&s.log2_pairs);
    else if (key == "restore_from") ok = want_str(&s.restore_from);
    else {
      *err = "unknown job field '" + key + "'";
      return false;
    }
    if (!ok) return false;
  }
  *out = s;
  return true;
}

std::string CacheKey::hex() const {
  char buf[2 * 8 + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

CacheKey derive_key(const JobSpec& spec, std::uint32_t code_version) {
  std::string bytes = spec.canonical();
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
