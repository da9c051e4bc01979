#include "server_process.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kBootTimeoutMs = 150'000;

/// Reads from `fd` into `buffer` until `done(buffer)` holds, EOF, or the
/// deadline passes. Returns whether `done` held.
template <typename Done>
bool read_until(int fd, std::string& buffer, std::int64_t deadline_ns, Done done) {
  char chunk[65536];
  while (!done(buffer)) {
    const std::int64_t left_ms = (deadline_ns - now_ns()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return done(buffer);
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("write to server failed");
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to the server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

ServerProcess::ServerProcess(const ServerConfig& config, double* setup_s) {
  std::vector<std::string> args = {config.binary, config.layer};
  if (!config.data_dir.empty()) {
    args.push_back("--data");
    args.push_back(config.data_dir);
  }
  args.insert(args.end(), {"--listen", "0", "--workers", std::to_string(config.workers)});
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, config.log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);

  const std::int64_t spawned = now_ns();
  const int rc = ::posix_spawn(&pid_, config.binary.c_str(), &actions, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + config.binary + ": " + std::strerror(rc));
  }

  // "dslayer service listening on port N (...)"
  const std::int64_t deadline = spawned + std::int64_t{kBootTimeoutMs} * 1'000'000;
  std::string banner;
  const bool up = read_until(stdout_fd_, banner, deadline, [](const std::string& b) {
    return b.find('\n') != std::string::npos;
  });
  const std::string key = "listening on port ";
  const std::size_t at = banner.find(key);
  if (!up || at == std::string::npos) {
    stop();
    throw std::runtime_error("server did not start; see " + config.log_path);
  }
  port_ = static_cast<std::uint16_t>(std::strtoul(banner.c_str() + at + key.size(), nullptr, 10));

  // First answered request: the end of set-up. `help` has no side
  // effects; `quit` then closes the probe session so it holds no slot.
  // A throwing constructor runs no destructor, so stop the child here.
  bool answered = false;
  try {
    const int fd = connect_loopback(port_);
    std::string in;
    write_all(fd, "setup help\n");
    answered = read_until(fd, in, deadline, [](const std::string& b) {
      return b.find("== 1 setup ok\n") != std::string::npos;
    });
    *setup_s = ms_between(spawned, now_ns()) / 1000.0;
    write_all(fd, "setup quit\n");
    ::shutdown(fd, SHUT_WR);
    read_until(fd, in, deadline, [](const std::string&) { return false; });  // to EOF
    ::close(fd);
  } catch (...) {
    stop();
    throw;
  }
  if (!answered) {
    stop();
    throw std::runtime_error("server never answered its first request");
  }
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string ServerProcess::scrape_metrics() const {
  const int fd = connect_loopback(port_);
  write_all(fd, "!metrics\n");
  ::shutdown(fd, SHUT_WR);
  std::string text;
  read_until(fd, text, now_ns() + 30'000'000'000, [](const std::string&) { return false; });
  ::close(fd);
  return text;
}

int ServerProcess::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGINT);
    int status = 0;
    const std::int64_t deadline = now_ns() + 60'000'000'000;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      exit_status_ = -1;
    } else {
      exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return exit_status_;
}

double metric_value(const std::string& exposition, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = exposition.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(exposition.c_str() + at + key.size(), nullptr);
}

}  // namespace perfbench
