#ifndef PRIMELABEL_UTIL_BINIO_H_
#define PRIMELABEL_UTIL_BINIO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bigint/bigint.h"

namespace primelabel {

/// Little-endian binary writer into an in-memory buffer. Byte-identical to
/// the stdio writer the catalog used to carry: the move to a buffer is what
/// lets every durable artifact (catalog, delta snapshot, WAL frames) be
/// assembled once and handed to the Vfs as a single write — the unit the
/// fault injector can reason about.
class ByteWriter {
 public:
  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> Take() { return std::move(buffer_); }

  void Bytes(const void* data, std::size_t size) {
    // resize + memcpy rather than a range insert: gcc 12 mis-sizes the
    // inlined insert of a small stack array (-Wstringop-overflow).
    if (size == 0) return;
    const std::size_t at = buffer_.size();
    buffer_.resize(at + size);
    std::memcpy(buffer_.data() + at, data, size);
  }
  void U8(std::uint8_t v) { Bytes(&v, 1); }
  void U32(std::uint32_t v) {
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    Bytes(b, 4);
  }
  void U64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    Bytes(b, 8);
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void String(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Big(const BigInt& v) {
    std::vector<std::uint8_t> bytes = v.ToMagnitudeBytes();
    U32(static_cast<std::uint32_t>(bytes.size()));
    Bytes(bytes.data(), bytes.size());
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Matching reader over a byte span; every accessor reports truncation
/// through ok(), with the same size sanity gates as the stdio reader
/// (strings capped at 256 MiB, label magnitudes at 16 MiB).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  bool Bytes(void* out, std::size_t size) {
    if (ok_ && data_.size() - pos_ >= size) {
      std::memcpy(out, data_.data() + pos_, size);
      pos_ += size;
    } else {
      ok_ = false;
    }
    return ok_;
  }
  std::uint8_t U8() {
    std::uint8_t v = 0;
    Bytes(&v, 1);
    return v;
  }
  std::uint32_t U32() {
    std::uint8_t b[4] = {};
    Bytes(b, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    std::uint8_t b[8] = {};
    Bytes(b, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  std::string String() {
    std::uint32_t size = U32();
    if (!ok_ || size > (1u << 28) || data_.size() - pos_ < size) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), size);
    pos_ += size;
    return s;
  }
  BigInt Big() {
    std::uint32_t size = U32();
    if (!ok_ || size > (1u << 24) || data_.size() - pos_ < size) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint8_t> bytes(data_.data() + pos_,
                                    data_.data() + pos_ + size);
    pos_ += size;
    return BigInt::FromMagnitudeBytes(bytes);
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace primelabel

#endif  // PRIMELABEL_UTIL_BINIO_H_
