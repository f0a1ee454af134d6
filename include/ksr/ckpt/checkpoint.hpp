#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

// Versioned, fingerprinted machine checkpoints (docs/CHECKPOINT.md).
//
// A checkpoint image is a little-endian byte stream:
//
//   offset  size  field
//        0     8  magic "KSRCKPT1"
//        8     4  format version (kVersion)
//       12     8  payload size in bytes
//       20     8  FNV-1a 64 fingerprint of the payload bytes
//       28     -  payload
//
// The payload is produced by Writer and consumed by Reader: a flat stream
// of fixed-width integers and length-prefixed strings, written and read in
// lock-step by Machine::checkpoint()/restore() and their subclass hooks.
// There is no in-band schema — the version field is the schema, and the
// restoring machine re-validates every config field against its own
// configuration before touching any state. Any flipped payload byte changes
// the fingerprint and open() rejects the image, so a corrupt checkpoint can
// never half-restore a machine.
namespace ksr::ckpt {

inline constexpr char kMagic[8] = {'K', 'S', 'R', 'C', 'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

/// FNV-1a 64-bit over a byte range — the payload fingerprint. Chosen over a
/// cryptographic hash deliberately: the threat model is accidental
/// corruption (truncated copy, flipped bit), not an adversary.
[[nodiscard]] inline std::uint64_t fnv1a(const std::byte* data,
                                         std::size_t n) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Append-only payload builder. All integers are written little-endian and
/// fixed-width so an image is byte-identical across hosts.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(const std::byte* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  void str(std::string_view s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::byte*>(s.data()), s.size());
  }

  [[nodiscard]] const std::vector<std::byte>& payload() const noexcept {
    return buf_;
  }

  /// Wrap the payload in the header (magic, version, size, fingerprint) and
  /// return the complete checkpoint image.
  [[nodiscard]] std::vector<std::byte> seal() const;

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked payload consumer. Every read past the end throws — a
/// truncated or mis-versioned stream fails loudly instead of misreading.
class Reader {
 public:
  explicit Reader(const std::byte* data, std::size_t n)
      : data_(data), size_(n) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() { return get_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(get_le<std::uint64_t>());
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }

  void bytes(std::byte* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

  /// Throw unless the whole payload was consumed — a length mismatch means
  /// writer and reader disagreed on the schema.
  void expect_end() const {
    if (pos_ != size_) {
      throw std::runtime_error(
          "checkpoint: " + std::to_string(size_ - pos_) +
          " unread payload byte(s) — image written by an incompatible "
          "serializer");
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw std::runtime_error(
          "checkpoint: truncated payload (need " + std::to_string(n) +
          " byte(s) at offset " + std::to_string(pos_) + " of " +
          std::to_string(size_) + ")");
    }
  }

  template <typename T>
  [[nodiscard]] T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Validate a complete image's magic, version, size, and fingerprint;
/// return a Reader positioned at the start of the payload. Throws
/// std::runtime_error with a specific diagnostic on any mismatch.
[[nodiscard]] Reader open(const std::byte* image, std::size_t n);
[[nodiscard]] inline Reader open(const std::vector<std::byte>& image) {
  return open(image.data(), image.size());
}

/// Durable whole-file write: the bytes land in a `<path>.tmp.<pid>` sibling
/// first and reach `path` only through rename(2), which POSIX makes atomic
/// within a filesystem — so a crash, kill, or full disk mid-write can never
/// leave a truncated file under the final name (the old contents, if any,
/// survive instead). Flush errors (ENOSPC surfaces here, not at fwrite) are
/// checked before the rename and the temp file is removed on any failure.
/// Throws std::runtime_error naming the path and the errno text. Shared by
/// checkpoint images, the serve result cache and the campaign outputs.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t n);
inline void atomic_write_file(const std::string& path,
                              const std::string& data) {
  atomic_write_file(path, data.data(), data.size());
}

/// Whole-image file I/O (binary). write_file is atomic_write_file — a
/// partial image can never appear under the final name; read_file throws on
/// any I/O failure.
void write_file(const std::string& path, const std::vector<std::byte>& image);
[[nodiscard]] std::vector<std::byte> read_file(const std::string& path);

/// XXH64 with seed 0 over a byte range: the published xxHash algorithm
/// (four lanes of little-endian 8-byte loads per 32-byte stripe), written
/// here so the digest does not depend on a library version. It folds eight
/// bytes per step where fnv1a folds one, so it is the content digest for
/// whole files; the image header keeps fnv1a (format v1).
[[nodiscard]] std::uint64_t xxh64(const std::byte* data,
                                  std::size_t n) noexcept;

/// xxh64 of a whole file, streamed through one fixed 64 KiB buffer: equal
/// to xxh64 over read_file(path), without holding the image. The serve
/// cache keys a checkpoint preset by it. Throws like read_file.
[[nodiscard]] std::uint64_t digest_file(const std::string& path);

}  // namespace ksr::ckpt
