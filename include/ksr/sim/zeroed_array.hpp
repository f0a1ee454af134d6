#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace ksr::sim {

namespace detail {
/// `bytes` of zeroed memory: a private anonymous mapping of its own when
/// large, calloc otherwise. Throws std::bad_alloc on failure.
void* allocate_zeroed(std::size_t bytes);
/// Frees what allocate_zeroed(bytes) returned.
void release_zeroed(void* base, std::size_t bytes) noexcept;
/// Clears the AddressSanitizer poison that fiber frames which never
/// returned left on memory about to be reused as a stack; a no-op in
/// builds without ASan.
void unpoison(void* base, std::size_t bytes) noexcept;
}  // namespace detail

/// A fixed-length, zero-filled array of `T` for large, sparsely used
/// storage: fiber stacks and per-cell cache directories.
///
/// A large array (64 KiB or more) is its own anonymous memory mapping. The
/// kernel supplies zero pages on first touch, so construction writes
/// nothing, only the pages the program uses become resident, and
/// destruction returns every page at once. Resident memory therefore
/// depends only on what the program touches, not on which pages the malloc
/// heap had touched before (a large heap block may land on either,
/// depending on the allocation history — in a threaded server, on request
/// timing). A small array comes from calloc: a mapping would cost two
/// system calls and a whole page to save next to nothing.
///
/// `T` must be an implicit-lifetime type whose all-zero bytes are its
/// value-initialized state.
template <class T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  ZeroedArray() = default;
  explicit ZeroedArray(std::size_t n)
      : data_(n == 0 ? nullptr
                     : static_cast<T*>(detail::allocate_zeroed(n * sizeof(T)))),
        size_(n) {}
  ~ZeroedArray() {
    if (data_ != nullptr) detail::release_zeroed(data_, size_ * sizeof(T));
  }
  ZeroedArray(ZeroedArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  ZeroedArray& operator=(ZeroedArray&& o) noexcept {
    ZeroedArray(std::move(o)).swap(*this);
    return *this;
  }
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  void swap(ZeroedArray& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
  }

  [[nodiscard]] T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* begin() const noexcept { return data_; }
  [[nodiscard]] T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ksr::sim
