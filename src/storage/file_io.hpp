// POSIX file primitives for the durable catalog, wrapped so every failure
// carries errno context in a StorageError and every handle is RAII-owned.
//
// The durability idioms live here, used by both the WAL and the snapshot
// writer:
//   * append + fsync          — the journal discipline;
//   * write tmp, fsync, rename into place, fsync the directory
//                             — atomic publication (a reader sees either
//                               the old file or the complete new one,
//                               never a torn middle);
//   * read-only mmap          — snapshot column payloads alias the
//                               mapping instead of being copied, which is
//                               what makes a million-core cold start a
//                               page-cache exercise rather than a parse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dslayer::storage {

/// RAII file descriptor. Move-only.
class File {
 public:
  File() = default;
  File(File&& other) noexcept : fd_(other.fd_), path_(std::move(other.path_)) { other.fd_ = -1; }
  File& operator=(File&& other) noexcept;
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Opens for reading; throws StorageError if missing/unreadable.
  static File open_read(const std::string& path);

  /// Opens read-write, creating if missing (0644); never truncates.
  static File open_readwrite(const std::string& path);

  /// Creates (or truncates) for writing (0644).
  static File create_truncate(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Full-buffer write at the current offset; loops over short writes.
  void write_all(const void* data, std::size_t size);
  void write_all(std::string_view data) { write_all(data.data(), data.size()); }

  /// Reads the whole file from offset 0 (restores no file position).
  std::string read_all() const;

  std::uint64_t size() const;
  void seek_end();
  void truncate(std::uint64_t length);
  void sync();  ///< fsync
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

bool path_exists(const std::string& path);
void ensure_directory(const std::string& path);  ///< mkdir -p, final component only made once
void remove_file(const std::string& path);       ///< missing file is not an error

/// Contents of `path`; throws StorageError if unreadable.
std::string read_file(const std::string& path);

/// fsync on the containing directory, making a rename/creation durable.
void sync_parent_directory(const std::string& path);

/// rename(tmp_path, final_path) + parent-directory fsync. The caller must
/// have fsynced tmp_path's contents first.
void rename_into_place(const std::string& tmp_path, const std::string& final_path);

/// Regular files directly inside `dir` (names only, sorted). Missing
/// directory yields an empty list.
std::vector<std::string> list_directory(const std::string& dir);

/// Read-only mmap of a whole file. Move-only; unmaps on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  static MappedFile map(const std::string& path);

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {data_, size_}; }

  /// Drops the whole pages inside `range` (a view into this mapping) from
  /// the process's resident set. The mapping stays valid: a later read
  /// faults the page back in from the page cache.
  void drop_pages(std::string_view range) const;

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace dslayer::storage
