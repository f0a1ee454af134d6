#include "ksr/serve/core.hpp"

#include <chrono>

namespace ksr::serve {

ServeCore::ServeCore(const Options& opt)
    : opt_(opt), cache_(opt.store_dir), runner_(opt.jobs) {}

ServeCore::Response ServeCore::submit(const JobSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  auto stamp_wall = [&t0](Response* r) {
    r->wall_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  Response resp;
  const std::string bad = spec.validate();
  if (!bad.empty()) {
    resp.error = "job: " + bad;
    std::lock_guard<std::mutex> lk(inflight_mu_);
    ++failures_;
    return resp;
  }
  std::string canonical;
  CacheKey key;
  try {
    canonical = spec.canonical();  // reads the checkpoint preset, may throw
    key = derive_key(canonical, opt_.code_version);
  } catch (const std::exception& e) {
    resp.error = e.what();
    std::lock_guard<std::mutex> lk(inflight_mu_);
    ++failures_;
    return resp;
  }
  resp.key = key.hex();

  for (;;) {
    if (cache_.lookup(key, canonical, &resp.result)) {
      resp.ok = true;
      resp.cached = true;
      stamp_wall(&resp);
      return resp;
    }
    std::shared_ptr<Inflight> fl;
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      const auto it = inflight_.find(key.value);
      if (it == inflight_.end()) {
        fl = std::make_shared<Inflight>();
        inflight_[key.value] = fl;
        break;  // we own the execution
      }
      fl = it->second;
      ++inflight_dedup_;
    }
    // A peer is simulating this exact spec right now: wait for its result
    // instead of burning a second run.
    std::unique_lock<std::mutex> lk(fl->mu);
    fl->cv.wait(lk, [&fl] { return fl->done; });
    Response peer = fl->resp;
    peer.cached = true;
    stamp_wall(&peer);
    return peer;
  }

  // Owner path: execute, store, publish to any waiters.
  Response done;
  done.key = resp.key;
  try {
    const JobOutcome out = execute(spec, opt_.sim_threads);
    done.ok = true;
    done.result = out.result;
    cache_.store(key, canonical, out.result);
    std::lock_guard<std::mutex> lk(inflight_mu_);
    ++executed_;
  } catch (const std::exception& e) {
    // Failures are never cached: the next submission retries.
    done.error = e.what();
    std::lock_guard<std::mutex> lk(inflight_mu_);
    ++failures_;
  }
  std::shared_ptr<Inflight> fl;
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    const auto it = inflight_.find(key.value);
    fl = it->second;
    inflight_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lk(fl->mu);
    fl->resp = done;
    fl->done = true;
  }
  fl->cv.notify_all();
  stamp_wall(&done);
  return done;
}

std::vector<ServeCore::Response> ServeCore::submit_batch(
    const std::vector<JobSpec>& specs) {
  std::vector<Response> out(specs.size());
  // One batch at a time: SweepRunner's claim protocol supports a single
  // in-flight run_indexed() call. Duplicate specs inside (or across) batches
  // still dedup through the inflight table — a waiting worker blocks while
  // the owning worker simulates, then both report the same bytes.
  std::lock_guard<std::mutex> lk(batch_mu_);
  runner_.run_indexed(specs.size(),
                      [this, &specs, &out](std::size_t i) {
                        out[i] = submit(specs[i]);
                      });
  return out;
}

ServeCore::Counters ServeCore::counters() const {
  Counters c;
  c.cache = cache_.stats();
  std::lock_guard<std::mutex> lk(inflight_mu_);
  c.executed = executed_;
  c.inflight_dedup = inflight_dedup_;
  c.failures = failures_;
  return c;
}

Json ServeCore::stats_json() const {
  const Counters c = counters();
  Json j = Json::object();
  j.set("hits", Json::uint(c.cache.hits));
  j.set("misses", Json::uint(c.cache.misses));
  j.set("stores", Json::uint(c.cache.stores));
  j.set("load_errors", Json::uint(c.cache.load_errors));
  j.set("inflight_dedup", Json::uint(c.inflight_dedup));
  j.set("executed", Json::uint(c.executed));
  j.set("failures", Json::uint(c.failures));
  j.set("code_version", Json::uint(opt_.code_version));
  j.set("store_dir", Json::str(opt_.store_dir));
  return j;
}

void ServeCore::write_stats_csv(std::ostream& os) const {
  const Counters c = counters();
  os << "counter,value\n"
     << "serve_cache_hits," << c.cache.hits << "\n"
     << "serve_cache_misses," << c.cache.misses << "\n"
     << "serve_cache_stores," << c.cache.stores << "\n"
     << "serve_cache_load_errors," << c.cache.load_errors << "\n"
     << "serve_inflight_dedup," << c.inflight_dedup << "\n"
     << "serve_executed," << c.executed << "\n"
     << "serve_failures," << c.failures << "\n";
}

}  // namespace ksr::serve
