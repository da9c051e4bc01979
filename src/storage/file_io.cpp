#include "storage/file_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::storage {

namespace {

using dslayer::cat;

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw StorageError(cat(op, " '", path, "': ", std::strerror(errno)));
}

std::string parent_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

int open_checked(const std::string& path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path.c_str(), flags, mode);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  } while (fd < 0 && errno == EINTR);
  return fd;
}

}  // namespace

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File File::open_read(const std::string& path) {
  File f;
  f.fd_ = open_checked(path, O_RDONLY | O_CLOEXEC);
  if (f.fd_ < 0) throw_errno("open", path);
  f.path_ = path;
  return f;
}

File File::open_readwrite(const std::string& path) {
  File f;
  f.fd_ = open_checked(path, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (f.fd_ < 0) throw_errno("open", path);
  f.path_ = path;
  return f;
}

File File::create_truncate(const std::string& path) {
  File f;
  f.fd_ = open_checked(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (f.fd_ < 0) throw_errno("create", path);
  f.path_ = path;
  return f;
}

void File::write_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd_, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path_);
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

std::string File::read_all() const {
  std::string out;
  out.resize(size());
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + off, out.size() - off, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read", path_);
    }
    if (n == 0) {  // shrank underneath us; return what exists
      out.resize(off);
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  return out;
}

std::uint64_t File::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw_errno("stat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::seek_end() {
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("seek", path_);
}

void File::truncate(std::uint64_t length) {
  int rc;
  do {
    rc = ::ftruncate(fd_, static_cast<off_t>(length));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) throw_errno("truncate", path_);
}

void File::sync() {
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) throw_errno("fsync", path_);
}

void File::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_directory(const std::string& path) {
  if (path.empty()) return;
  // mkdir -p: create each '/'-separated prefix; EEXIST is success.
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) throw_errno("mkdir", prefix);
  }
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) throw_errno("unlink", path);
}

std::string read_file(const std::string& path) { return File::open_read(path).read_all(); }

void sync_parent_directory(const std::string& path) {
  const std::string dir = parent_of(path);
  const int fd = open_checked(dir, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open dir", dir);
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    throw_errno("fsync dir", dir);
  }
}

void rename_into_place(const std::string& tmp_path, const std::string& final_path) {
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) throw_errno("rename", tmp_path);
  sync_parent_directory(final_path);
}

std::vector<std::string> list_directory(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return out;
    throw_errno("opendir", dir);
  }
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    if (::stat(cat(dir, "/", name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      out.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

MappedFile::MappedFile(MappedFile&& other) noexcept : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

MappedFile MappedFile::map(const std::string& path) {
  MappedFile m;
  const int fd = open_checked(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("stat", path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {  // mmap of length 0 is EINVAL; empty view is fine
    ::close(fd);
    return m;
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int saved = errno;
  ::close(fd);
  if (p == MAP_FAILED) {
    errno = saved;
    throw_errno("mmap", path);
  }
  m.data_ = static_cast<const char*>(p);
  m.size_ = size;
  return m;
}

void MappedFile::drop_pages(std::string_view range) const {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = (reinterpret_cast<std::uintptr_t>(range.data()) + page - 1) & ~(page - 1);
  const auto end = (reinterpret_cast<std::uintptr_t>(range.data()) + range.size()) & ~(page - 1);
  // Advisory: a failure only leaves the pages resident.
  if (end > begin) (void)::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
}

}  // namespace dslayer::storage
