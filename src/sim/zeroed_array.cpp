#include "ksr/sim/zeroed_array.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define KSR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KSR_ASAN 1
#endif
#endif
#ifdef KSR_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ksr::sim::detail {

namespace {
constexpr std::size_t kMinMappedBytes = 64 * 1024;
}  // namespace

void* allocate_zeroed(std::size_t bytes) {
  if (bytes < kMinMappedBytes) {
    void* p = std::calloc(1, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  // A fiber stack unmapped while its frames were live leaves ASan's stack
  // poison in shadow memory; a new mapping at that address starts clean.
  unpoison(base, bytes);
  return base;
}

void release_zeroed(void* base, std::size_t bytes) noexcept {
  if (bytes < kMinMappedBytes) {
    std::free(base);
  } else {
    munmap(base, bytes);
  }
}

void unpoison([[maybe_unused]] void* base,
              [[maybe_unused]] std::size_t bytes) noexcept {
#ifdef KSR_ASAN
  ASAN_UNPOISON_MEMORY_REGION(base, bytes);
#endif
}

}  // namespace ksr::sim::detail
