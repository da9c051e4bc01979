// Byte positions inside a snapshot file, for tests that corrupt one field
// of a kCores record and check the loader rejects it (layout: see
// src/storage/snapshot.hpp). Little-endian, as the codec writes.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace dslayer::testing_support {

inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

inline std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + at, 4);
  return v;
}

inline void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, 4);
}

/// Offsets of the first core record of the first library in kCores.
struct FirstCoreRecord {
  std::size_t name_length = 0;   ///< u32 length of the core name
  std::size_t class_symbol = 0;  ///< u32 snapshot symbol id of the class path
  std::size_t binding_kind = 0;  ///< u8 value-kind tag of the first binding
};

inline FirstCoreRecord first_core_record(const std::string& bytes) {
  constexpr std::uint32_t kCoresTag = 4;
  const std::uint32_t sections = get_u32(bytes, 12);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::size_t entry = 32 + std::size_t{i} * 32;
    if (get_u32(bytes, entry) == kCoresTag) {
      std::uint64_t offset;
      std::memcpy(&offset, bytes.data() + entry + 8, 8);
      at = static_cast<std::size_t>(offset);
    }
  }
  at += 4;                           // library count
  at += 4 + get_u32(bytes, at) + 8;  // library name, core count
  FirstCoreRecord record;
  record.name_length = at;
  record.class_symbol = at + 4 + get_u32(bytes, at);
  // class symbol, cdo id, binding count, then the binding's symbol id
  record.binding_kind = record.class_symbol + 4 + 4 + 4 + 4;
  return record;
}

}  // namespace dslayer::testing_support
