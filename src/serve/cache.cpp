#include "ksr/serve/cache.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "ksr/ckpt/checkpoint.hpp"

namespace ksr::serve {

namespace {
constexpr char kHeaderPrefix[] = "ksr-serve-cache v1 key=";
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("serve: cannot create store directory '" + dir_ +
                             "': " + std::strerror(errno));
  }
}

std::string ResultCache::path_of(const CacheKey& key) const {
  return dir_ + "/" + key.hex() + ".result";
}

bool ResultCache::lookup(const CacheKey& key, const std::string& canonical,
                         std::string* result, bool count_miss) {
  // Under mu_: a miss, counted unless this is a re-probe.
  const auto miss = [&](bool load_error) {
    if (count_miss) {
      stats_.load_errors += load_error ? 1 : 0;
      ++stats_.misses;
    }
    return false;
  };
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = mem_.find(key.value);
    if (it != mem_.end()) {
      if (it->second.canonical == canonical) {
        *result = it->second.result;
        ++stats_.hits;
        return true;
      }
      // Same 64-bit key, different spec: a genuine FNV collision. Refuse
      // to alias; both specs will simply re-run.
      return miss(true);
    }
  }
  if (dir_.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    return miss(false);
  }
  // Disk probe outside the lock (one open+read; worst case two threads race
  // to load the same entry, both succeed identically).
  const std::string path = path_of(key);
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    std::lock_guard<std::mutex> lk(mu_);
    return miss(false);
  }
  std::string header;
  std::string canon;
  std::string bytes;
  const bool shaped = static_cast<bool>(std::getline(is, header)) &&
                      static_cast<bool>(std::getline(is, canon)) &&
                      static_cast<bool>(std::getline(is, bytes));
  const bool valid = shaped && header == kHeaderPrefix + key.hex() &&
                     canon == canonical;
  std::lock_guard<std::mutex> lk(mu_);
  if (!valid) {
    // Truncated, hand-edited, or written against a colliding spec: count it
    // and fall through to a re-run (which will overwrite the entry).
    return miss(true);
  }
  mem_[key.value] = Entry{canonical, bytes};
  *result = std::move(bytes);
  ++stats_.hits;
  return true;
}

void ResultCache::store(const CacheKey& key, const std::string& canonical,
                        const std::string& result) {
  if (!dir_.empty()) {
    std::string blob;
    blob.reserve(sizeof(kHeaderPrefix) + canonical.size() + result.size() + 18);
    blob += kHeaderPrefix;
    blob += key.hex();
    blob += '\n';
    blob += canonical;
    blob += '\n';
    blob += result;
    blob += '\n';
    try {
      ckpt::atomic_write_file(path_of(key), blob);
    } catch (const std::exception& e) {
      // A store failure (disk full, directory removed) only loses
      // memoization across restarts; the in-memory entry still serves this
      // process. Warn with the path, don't fail the job that just ran.
      std::cerr << "[serve] warning: result store write failed: " << e.what()
                << "\n";
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  mem_[key.value] = Entry{canonical, result};
  ++stats_.stores;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace ksr::serve
