// Little-endian binary codec for the durable catalog's record payloads.
//
// Fixed-width scalars (u8/u32/u64/f64) and u32-length-prefixed strings,
// appended to a growable byte buffer. The decoder is a bounds-checked
// cursor over a read-only view: every read validates the remaining length
// and throws StorageError on truncation, so a corrupt journal record
// surfaces as a recovery error instead of undefined behavior. Byte order
// is fixed little-endian — snapshots and journals are movable between
// hosts of the same endianness class (every target we build for).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "dsl/value.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::storage {

class Encoder {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    char raw[4];
    std::memcpy(raw, &v, 4);
    buffer_.append(raw, 4);
  }

  void u64(std::uint64_t v) {
    char raw[8];
    std::memcpy(raw, &v, 8);
    buffer_.append(raw, 8);
  }

  void f64(double v) {
    char raw[8];
    std::memcpy(raw, &v, 8);
    buffer_.append(raw, 8);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buffer_.append(s.data(), s.size());
  }

  void bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  /// Tagged Value: kind byte, then the payload for that kind.
  void value(const dsl::Value& v) {
    u8(static_cast<std::uint8_t>(v.kind()));
    switch (v.kind()) {
      case dsl::Value::Kind::kEmpty: break;
      case dsl::Value::Kind::kNumber: f64(v.as_number()); break;
      case dsl::Value::Kind::kText: str(v.as_text()); break;
      case dsl::Value::Kind::kFlag: u8(v.as_flag() ? 1 : 0); break;
    }
  }

  const std::string& buffer() const { return buffer_; }
  std::string take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  double f64() {
    require(8);
    double v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  std::string_view str() {
    const std::uint32_t n = u32();
    require(n);
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  dsl::Value value() {
    switch (static_cast<dsl::Value::Kind>(u8())) {
      case dsl::Value::Kind::kEmpty: return dsl::Value{};
      case dsl::Value::Kind::kNumber: return dsl::Value::number(f64());
      case dsl::Value::Kind::kText: return dsl::Value::text(std::string(str()));
      case dsl::Value::Kind::kFlag: return dsl::Value::flag(u8() != 0);
    }
    throw StorageError("codec: bad value kind tag");
  }

  /// Steps over one tagged Value, checking its tag and lengths exactly as
  /// value() would, without building it.
  void skip_value() {
    switch (static_cast<dsl::Value::Kind>(u8())) {
      case dsl::Value::Kind::kEmpty: return;
      case dsl::Value::Kind::kNumber: skip(8); return;
      case dsl::Value::Kind::kText: skip(u32()); return;
      case dsl::Value::Kind::kFlag: skip(1); return;
    }
    throw StorageError("codec: bad value kind tag");
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void require(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw StorageError(cat("codec: truncated record (need ", n, " bytes at offset ",
                                      pos_, ", have ", data_.size() - pos_, ")"));
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace dslayer::storage
