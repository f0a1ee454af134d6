#include "ksr/ckpt/checkpoint.hpp"

#include <unistd.h>

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
  std::vector<std::byte> image;
  std::byte chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), f);
    image.insert(image.end(), chunk, chunk + n);
    if (n < sizeof(chunk)) break;
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    throw std::runtime_error("checkpoint: read error on " + path);
  }
  return image;
}

}  // namespace ksr::ckpt
