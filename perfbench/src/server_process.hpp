// The server under test: a real `dslshell <layer> [--data DIR] --listen 0`
// process, spawned, timed to its first `ok` response, scraped, stopped.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

struct ServerConfig {
  std::string binary;    ///< path of the dslshell executable
  std::string layer = "crypto";
  std::string data_dir;  ///< empty: volatile sessions, code-built catalog
  unsigned workers = 4;
  std::string log_path;  ///< the server's stderr goes here
};

class ServerProcess {
 public:
  /// Spawns the server and sends one request on a fresh connection.
  /// `setup_s` receives the time from the spawn to that request's `ok`
  /// header. Throws std::runtime_error when the server does not come up.
  ServerProcess(const ServerConfig& config, double* setup_s);
  ~ServerProcess();  ///< stop() if still running

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) so far, in MB.
  double peak_rss_mb() const;

  /// The `!metrics` exposition, read on its own connection.
  std::string scrape_metrics() const;

  /// SIGINT, then waits for the exit (SIGKILL after a grace period).
  /// Returns the exit status, -1 when it had to be killed. Idempotent.
  int stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  int exit_status_ = 0;
};

/// A blocking loopback connection to `port`; throws on failure.
int connect_loopback(std::uint16_t port);

/// Value of an unlabelled sample `name` in a Prometheus exposition, or -1.
double metric_value(const std::string& exposition, const std::string& name);

}  // namespace perfbench
