#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ksr::cache {

/// Set selection for a set-associative cache: `key mod sets`, as a mask
/// when the set count is a power of two (every full or `scaled_by(2^k)`
/// geometry) and as a divide otherwise (e.g. `scaled_by(3)`). Both give the
/// same set, so placement never depends on which path a geometry takes.
class SetIndex {
 public:
  explicit SetIndex(std::size_t sets) noexcept
      : sets_(sets), mask_(std::has_single_bit(sets) ? sets - 1 : 0),
        pow2_(std::has_single_bit(sets)) {}

  [[nodiscard]] std::size_t operator()(std::uint64_t key) const noexcept {
    return pow2_ ? static_cast<std::size_t>(key & mask_)
                 : static_cast<std::size_t>(key % sets_);
  }

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }

 private:
  std::size_t sets_;
  std::uint64_t mask_;
  bool pow2_;
};

}  // namespace ksr::cache
