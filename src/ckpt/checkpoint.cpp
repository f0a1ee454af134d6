#include "ksr/ckpt/checkpoint.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>

namespace ksr::ckpt {

std::vector<std::byte> Writer::seal() const {
  std::vector<std::byte> out;
  out.reserve(kHeaderBytes + buf_.size());
  for (const char c : kMagic) out.push_back(static_cast<std::byte>(c));
  auto le = [&out](std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  };
  le(kVersion, 4);
  le(buf_.size(), 8);
  le(fnv1a(buf_.data(), buf_.size()), 8);
  out.insert(out.end(), buf_.begin(), buf_.end());
  return out;
}

Reader open(const std::byte* image, std::size_t n) {
  if (n < kHeaderBytes) {
    throw std::runtime_error("checkpoint: image too small for a header (" +
                             std::to_string(n) + " byte(s))");
  }
  if (std::memcmp(image, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(
        "checkpoint: bad magic — not a KSR checkpoint image");
  }
  auto le = [image](std::size_t off, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(image[off + i]))
           << (8 * i);
    }
    return v;
  };
  const std::uint64_t version = le(8, 4);
  if (version != kVersion) {
    throw std::runtime_error("checkpoint: format version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(kVersion) + ")");
  }
  const std::uint64_t payload = le(12, 8);
  if (payload != n - kHeaderBytes) {
    throw std::runtime_error(
        "checkpoint: header claims " + std::to_string(payload) +
        " payload byte(s), image carries " + std::to_string(n - kHeaderBytes));
  }
  const std::uint64_t want = le(20, 8);
  const std::uint64_t got =
      fnv1a(image + kHeaderBytes, static_cast<std::size_t>(payload));
  if (want != got) {
    char buf[2 * 16 + 2];  // two 16-digit fingerprints, '/', NUL
    std::snprintf(buf, sizeof(buf), "%016llx/%016llx",
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    throw std::runtime_error(
        std::string("checkpoint: payload fingerprint mismatch (header/actual "
                    "fnv1a ") +
        buf + ") — image corrupt, restore refused");
  }
  return Reader(image + kHeaderBytes, static_cast<std::size_t>(payload));
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t n) {
  // The pid suffix keeps concurrent writers of the same path (two daemons
  // sharing a result-cache store) off each other's temp file; whichever
  // rename lands last wins with a complete image either way.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + tmp +
                             " for writing: " + std::strerror(errno));
  }
  const std::size_t wrote = n == 0 ? 0 : std::fwrite(data, 1, n, f);
  // fclose flushes the stdio buffer; a full disk often only surfaces here.
  const bool flushed = std::fclose(f) == 0;
  if (wrote != n || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to " + tmp + ": " +
                             std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path + ": " + why);
  }
}

void write_file(const std::string& path, const std::vector<std::byte>& image) {
  atomic_write_file(path, image.data(), image.size());
}

std::vector<std::byte> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  // Size the image once from a regular file's length and read it in one
  // call, then read on to end of file: a pipe reports no length, and a file
  // may have grown since the fstat.
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0) {
    const std::string why = std::strerror(errno);
    std::fclose(f);
    throw std::runtime_error("checkpoint: cannot stat " + path + ": " + why);
  }
  std::vector<std::byte> image(
      S_ISREG(st.st_mode) ? static_cast<std::size_t>(st.st_size) : 0);
  image.resize(std::fread(image.data(), 1, image.size(), f));
  std::byte chunk[1 << 16];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
    image.insert(image.end(), chunk, chunk + n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    throw std::runtime_error("checkpoint: read error on " + path);
  }
  return image;
}

namespace {

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;
constexpr std::size_t kStripe = 32;
constexpr std::size_t kChunk = std::size_t{1} << 16;  // digest_file's buffer
static_assert(kChunk % kStripe == 0,
              "every chunk but the last must fold as whole stripes");

// One unaligned little-endian load (a single mov on x86-64, where a
// byte-assembling loop stays a loop at -O2 and costs most of the digest).
template <typename T>
[[nodiscard]] std::uint64_t load_le(const std::byte* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    else v = __builtin_bswap32(v);
  }
  return v;
}

[[nodiscard]] std::uint64_t xxh_round(std::uint64_t acc,
                                      std::uint64_t lane) noexcept {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

/// XXH64 state: whole stripes fold into four lane accumulators as they
/// arrive; finish() folds the last bytes and the length.
class Xxh64 {
 public:
  /// Fold `n` bytes; `n` must be a multiple of kStripe.
  void stripes(const std::byte* p, std::size_t n) noexcept {
    std::uint64_t a = v_[0], b = v_[1], c = v_[2], d = v_[3];
    for (const std::byte* end = p + n; p != end; p += kStripe) {
      a = xxh_round(a, load_le<std::uint64_t>(p));
      b = xxh_round(b, load_le<std::uint64_t>(p + 8));
      c = xxh_round(c, load_le<std::uint64_t>(p + 16));
      d = xxh_round(d, load_le<std::uint64_t>(p + 24));
    }
    v_[0] = a;
    v_[1] = b;
    v_[2] = c;
    v_[3] = d;
    total_ += n;
  }

  /// Fold the final `n` bytes (any length) and return the digest.
  [[nodiscard]] std::uint64_t finish(const std::byte* p,
                                     std::size_t n) noexcept {
    const std::size_t whole = n - n % kStripe;
    stripes(p, whole);
    p += whole;
    n -= whole;
    total_ += n;
    std::uint64_t h = kP5;  // seed 0, under one stripe
    if (total_ >= kStripe) {
      h = std::rotl(v_[0], 1) + std::rotl(v_[1], 7) + std::rotl(v_[2], 12) +
          std::rotl(v_[3], 18);
      for (const std::uint64_t v : v_) h = (h ^ xxh_round(0, v)) * kP1 + kP4;
    }
    h += total_;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint64_t k = xxh_round(0, load_le<std::uint64_t>(p));
      h = std::rotl(h ^ k, 27) * kP1 + kP4;
    }
    if (n >= 4) {
      h = std::rotl(h ^ load_le<std::uint32_t>(p) * kP1, 23) * kP2 + kP3;
      p += 4;
      n -= 4;
    }
    for (; n > 0; ++p, --n) {
      h = std::rotl(h ^ static_cast<std::uint64_t>(*p) * kP5, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    return h ^ (h >> 32);
  }

 private:
  std::uint64_t v_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::uint64_t total_ = 0;
};

}  // namespace

std::uint64_t xxh64(const std::byte* data, std::size_t n) noexcept {
  return Xxh64{}.finish(data, n);
}

std::uint64_t digest_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  Xxh64 h;
  std::byte chunk[kChunk];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) == sizeof(chunk)) {
    h.stripes(chunk, n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    throw std::runtime_error("checkpoint: read error on " + path);
  }
  return h.finish(chunk, n);
}

}  // namespace ksr::ckpt
