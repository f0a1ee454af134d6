#include "ksr/serve/campaign.hpp"

#include <cstdio>

#include "ksr/ckpt/checkpoint.hpp"

namespace ksr::serve {

namespace {

/// Overlay `layer`'s members onto `base` (replace-or-append).
Json merge(const Json& base, const Json& layer) {
  Json out = base.is_object() ? base : Json::object();
  for (const auto& [k, v] : layer.members()) out.set(k, v);
  return out;
}

bool expand_sweep(const Json& manifest_base, const Json& sweep,
                  std::vector<JobSpec>* out, std::string* err) {
  if (!sweep.is_object()) {
    *err = "manifest: each sweep must be an object";
    return false;
  }
  Json base = manifest_base;
  if (const Json* sb = sweep.find("base"); sb != nullptr) {
    if (!sb->is_object()) {
      *err = "manifest: sweep 'base' must be an object";
      return false;
    }
    base = merge(base, *sb);
  }
  const Json* axes = sweep.find("axes");
  if (axes != nullptr && !axes->is_object()) {
    *err = "manifest: sweep 'axes' must be an object";
    return false;
  }
  for (const auto& [k, v] : sweep.members()) {
    if (k != "base" && k != "axes") {
      *err = "manifest: unknown sweep key '" + k + "'";
      return false;
    }
  }
  // Cross product of the axes, manifest order, later axes fastest — a
  // deterministic job order so the result database is byte-stable.
  std::vector<Json> combos{base};
  if (axes != nullptr) {
    for (const auto& [axis, values] : axes->members()) {
      if (!values.is_array() || values.items().empty()) {
        *err = "manifest: axis '" + axis + "' must be a non-empty array";
        return false;
      }
      std::vector<Json> next;
      next.reserve(combos.size() * values.items().size());
      for (const Json& c : combos) {
        for (const Json& v : values.items()) {
          Json merged = c;
          merged.set(axis, v);
          next.push_back(std::move(merged));
        }
      }
      combos = std::move(next);
    }
  }
  for (const Json& c : combos) {
    JobSpec spec;
    if (!JobSpec::from_json(c, &spec, err)) return false;
    const std::string bad = spec.validate();
    if (!bad.empty()) {
      *err = "manifest: " + bad;
      return false;
    }
    out->push_back(std::move(spec));
  }
  return true;
}

}  // namespace

bool expand_manifest(const Json& manifest, Campaign* out, std::string* err) {
  if (!manifest.is_object()) {
    *err = "manifest must be a JSON object";
    return false;
  }
  Campaign c;
  if (const Json* name = manifest.find("name"); name != nullptr) {
    if (!name->is_string()) {
      *err = "manifest: 'name' must be a string";
      return false;
    }
    c.name = name->as_string();
  } else {
    c.name = "campaign";
  }
  Json base = Json::object();
  if (const Json* b = manifest.find("base"); b != nullptr) {
    if (!b->is_object()) {
      *err = "manifest: 'base' must be an object";
      return false;
    }
    base = *b;
  }
  const Json* sweeps = manifest.find("sweeps");
  if (sweeps == nullptr || !sweeps->is_array() || sweeps->items().empty()) {
    *err = "manifest: 'sweeps' must be a non-empty array";
    return false;
  }
  for (const auto& [k, v] : manifest.members()) {
    if (k != "name" && k != "base" && k != "sweeps") {
      *err = "manifest: unknown key '" + k + "'";
      return false;
    }
  }
  for (const Json& sweep : sweeps->items()) {
    if (!expand_sweep(base, sweep, &c.jobs, err)) return false;
  }
  if (c.jobs.empty()) {
    *err = "manifest expanded to zero jobs";
    return false;
  }
  *out = std::move(c);
  return true;
}

CampaignOutcome run_campaign(const Campaign& campaign, ServeCore& core,
                             const std::string& out_prefix) {
  const std::vector<ServeCore::Response> rs = core.submit_batch(campaign.jobs);

  CampaignOutcome outcome;
  outcome.jobs = rs.size();
  // Deterministic result database: no wall clocks, no cached flags — a
  // resumed campaign must reproduce the cold run's files byte for byte.
  std::string jsonl;
  // Spec columns: every JobSpec field in canonical order, so two jobs that
  // differ in any field differ in a column, not only in `key`.
  std::string csv = "index";
  const Json columns = JobSpec{}.all_fields();
  for (const auto& [field, v] : columns.members()) csv += ',' + field;
  csv += ",key,events_dispatched,seconds\n";
  auto cell = [&csv](const std::string& v) {  // RFC 4180 quoting if needed
    if (v.find_first_of(",\"\r\n") == std::string::npos) {
      csv += v;
      return;
    }
    csv += '"';
    for (char c : v) {
      if (c == '"') csv += '"';
      csv += c;
    }
    csv += '"';
  };
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const ServeCore::Response& r = rs[i];
    const JobSpec& spec = campaign.jobs[i];
    if (r.ok) {
      r.cached ? ++outcome.hits : ++outcome.executed;
    } else {
      ++outcome.failures;
    }
    std::fprintf(stderr, "[campaign] job=%zu/%zu key=%s %s\n", i + 1,
                 rs.size(), r.key.c_str(),
                 r.ok ? (r.cached ? "hit" : "run")
                      : ("FAILED: " + r.error).c_str());

    jsonl += "{\"index\":" + std::to_string(i) + ",\"key\":\"" + r.key +
             "\",\"spec\":";
    spec.to_json().write(&jsonl);
    if (r.ok) {
      jsonl += ",\"result\":";
      jsonl += r.result;  // verbatim cached bytes
    } else {
      jsonl += ",\"error\":";
      Json::str(r.error).write(&jsonl);
    }
    jsonl += "}\n";

    std::string events;
    std::string seconds;
    if (r.ok) {
      std::string perr;
      const Json result = Json::parse(r.result, &perr);
      if (const Json* e = result.find("events_dispatched"); e != nullptr) {
        events = e->dump();
      }
      if (const Json* s = result.find("seconds"); s != nullptr) {
        seconds = s->dump();
      }
    }
    csv += std::to_string(i);
    const Json fields = spec.all_fields();
    for (const auto& [field, v] : fields.members()) {
      csv += ',';
      cell(v.is_string() ? v.as_string() : v.dump());
    }
    csv += ',' + r.key + ',' + events + ',' + seconds + '\n';
  }
  if (!out_prefix.empty()) {
    ckpt::atomic_write_file(out_prefix + ".jsonl", jsonl);
    ckpt::atomic_write_file(out_prefix + ".csv", csv);
  }
  std::fprintf(stderr,
               "[campaign] name=%s jobs=%zu hits=%zu executed=%zu "
               "failures=%zu hit_rate_pct=%u\n",
               campaign.name.c_str(), outcome.jobs, outcome.hits,
               outcome.executed, outcome.failures, outcome.hit_rate_pct());
  return outcome;
}

}  // namespace ksr::serve
