#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ksr/serve/job.hpp"

// Content-addressed result store (docs/SERVING.md). One file per cache key
// under the store directory, written temp-then-atomic-rename (the shared
// ckpt::atomic_write_file helper), so a crash mid-store can never leave a
// torn entry and repeated sweep points are free across daemon restarts.
//
// File layout (text, three lines):
//   ksr-serve-cache v1 key=<16-hex>
//   <canonical job spec string>
//   <result JSON bytes, verbatim>
//
// The canonical spec rides along and is verified on every load: an FNV-1a
// key collision, a file renamed by hand, or a store shared between
// incompatible builds degrades to a miss (counted in load_errors), never to
// a wrong result served as a hit.
namespace ksr::serve {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;         // memory or disk
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t load_errors = 0;  // corrupt/mismatched store files
  };

  /// `dir` empty = in-memory only (tests, one-shot campaigns). Otherwise the
  /// directory is created if missing; entries persist across restarts.
  explicit ResultCache(std::string dir);

  /// True and fills *result (byte-identical to what store() was given) when
  /// `key` holds a result for `canonical`. Thread-safe. A re-probe after a
  /// counted miss passes `count_miss` false: it counts only a hit.
  [[nodiscard]] bool lookup(const CacheKey& key, const std::string& canonical,
                            std::string* result, bool count_miss = true);

  /// Persist a completed result. Thread-safe; a concurrent store of the
  /// same key wins-last with identical bytes (results are deterministic).
  void store(const CacheKey& key, const std::string& canonical,
             const std::string& result);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::string path_of(const CacheKey& key) const;

 private:
  struct Entry {
    std::string canonical;
    std::string result;
  };

  std::string dir_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> mem_;
  Stats stats_;
};

}  // namespace ksr::serve
