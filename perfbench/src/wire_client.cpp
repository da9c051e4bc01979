#include "wire_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "server_process.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr std::size_t kKeptBodyCap = std::size_t{256} << 20;

class LoadClient {
 public:
  LoadClient(std::uint16_t port, const std::vector<Script>& scripts, unsigned connections,
         Cursors& cursors)
      : scripts_(scripts), cursors_(cursors), conns_(connections) {
    if (connections == 0 || connections > 4) throw std::invalid_argument("1 to 4 connections");
    cursors_.resize(scripts.size(), 0);
    for (Conn& conn : conns_) {
      conn.fd = connect_loopback(port);
      ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    }
  }

  ~LoadClient() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  LoadResult closed_loop(double seconds) {
    closed_ = true;
    reserve(1u << 16);
    start_ns_ = now_ns();
    deadline_ns_ = start_ns_ + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0; i < scripts_.size(); ++i) send(i % conns_.size(), i, now_ns());
    while (outstanding() > 0 && !drain_expired()) wait_and_read(now_ns() + 50'000'000);
    return finish();
  }

  LoadResult open_loop(double rate, double seconds) {
    const auto total = static_cast<std::uint64_t>(rate * seconds);
    // Growing these mid-run would stall the client, and an open loop
    // charges a client stall to every request due during it.
    reserve(total);
    start_ns_ = now_ns();
    const double interval_ns = 1e9 / rate;
    deadline_ns_ = start_ns_ + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t k = 0;
    const auto due = [&](std::uint64_t i) {
      return start_ns_ + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    };
    while (k < total || (outstanding() > 0 && !drain_expired())) {
      const std::int64_t now = now_ns();
      while (k < total && due(k) <= now) {
        const std::size_t script = k % scripts_.size();
        result_.lateness_ms.push_back(ms_between(due(k), now));
        send(script % conns_.size(), script, due(k));
        ++k;
      }
      wait_and_read(k < total ? due(k) : now + 50'000'000);
    }
    return finish();
  }

 private:
  struct Pending {
    std::uint32_t script = 0;
    std::uint32_t step = 0;
    std::int64_t t0 = 0;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_off = 0;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint64_t next_id = 0;
    bool dead = false;
  };
  struct Kept {
    std::string body;
    const Step* step;
  };

  void reserve(std::size_t requests) {
    kept_.reserve(requests);
    result_.lateness_ms.reserve(requests);
    for (auto& samples : result_.by_verb) samples.reserve(requests);
  }

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& conn : conns_) n += conn.pending.size();
    return n;
  }

  bool drain_expired() const { return now_ns() > deadline_ns_ + kDrainTimeoutNs; }

  void send(std::size_t c, std::size_t script, std::int64_t t0) {
    Conn& conn = conns_[c];
    if (conn.dead) return;
    const Script& s = scripts_[script];
    const std::size_t step = cursors_[script];
    cursors_[script] = (step + 1) % s.steps.size();
    const std::size_t before = conn.out.size();
    conn.out += s.session;
    conn.out += ' ';
    conn.out += s.steps[step].command;
    conn.out += '\n';
    result_.bytes_sent += conn.out.size() - before;
    ++result_.attempted;
    const std::int64_t t = closed_ ? now_ns() : t0;
    conn.pending.emplace(++conn.next_id, Pending{static_cast<std::uint32_t>(script),
                                                 static_cast<std::uint32_t>(step), t});
    flush(conn);
  }

  void flush(Conn& conn) {
    while (!conn.dead && conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        kill(conn);
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }

  /// Every request still outstanding on a lost connection fails.
  void kill(Conn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    result_.unanswered += conn.pending.size();
    conn.pending.clear();
  }

  void wait_and_read(std::int64_t wake_ns) {
    pollfd fds[4];
    nfds_t n = 0;
    for (Conn& conn : conns_) {
      fds[n].fd = conn.dead ? -1 : conn.fd;
      fds[n].events = static_cast<short>(POLLIN | (conn.out_off < conn.out.size() ? POLLOUT : 0));
      fds[n].revents = 0;
      ++n;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, wake_ns - now_ns());
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds, n, &timeout, nullptr) <= 0) return;
    for (nfds_t i = 0; i < n; ++i) {
      Conn& conn = conns_[i];
      if (conn.dead) continue;
      if (fds[i].revents & POLLOUT) flush(conn);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read(conn, i);
    }
  }

  void read(Conn& conn, std::size_t c) {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        parse(conn, c, now_ns());
        kill(conn);
        return;
      }
      result_.bytes_received += static_cast<std::size_t>(n);
      conn.in.append(chunk, static_cast<std::size_t>(n));
    }
    parse(conn, c, now_ns());
  }

  /// Consumes every complete response in the connection's buffer.
  void parse(Conn& conn, std::size_t c, std::int64_t arrived) {
    while (!conn.dead) {
      const std::size_t eol = conn.in.find('\n', conn.in_off);
      if (eol == std::string::npos) break;
      if (conn.in.compare(conn.in_off, 3, "== ") != 0) {
        kill(conn);  // desynchronized: a body was not the oracle's length
        return;
      }
      char* end = nullptr;
      const std::uint64_t id = std::strtoull(conn.in.c_str() + conn.in_off + 3, &end, 10);
      const auto it = conn.pending.find(id);
      if (it == conn.pending.end()) {
        kill(conn);
        return;
      }
      const std::string header(conn.in, conn.in_off, eol - conn.in_off);
      const std::size_t status_at = header.find(' ', header.find(' ', 3) + 1) + 1;
      const bool ok = header.compare(status_at, std::string::npos, "ok") == 0;
      const Pending pending = it->second;
      const Step& step = scripts_[pending.script].steps[pending.step];
      std::size_t body_end = 0;
      if (ok) {
        body_end = eol + 1 + step.body.size();
        if (conn.in.size() < body_end) break;
      } else {
        body_end = conn.in.find('\n', eol + 1);
        if (body_end == std::string::npos) break;
        ++body_end;
      }
      conn.pending.erase(it);
      if (ok) {
        result_.by_verb[static_cast<std::size_t>(step.verb)].push_back(
            ms_between(pending.t0, arrived));
        keep(conn.in, eol + 1, step);
      } else {
        ++result_.not_ok;
      }
      last_response_ns_ = arrived;
      conn.in_off = body_end;
      if (closed_ && arrived < deadline_ns_) send(c, pending.script, arrived);
    }
    if (conn.in_off > (1u << 20) || conn.in_off == conn.in.size()) {
      conn.in.erase(0, conn.in_off);
      conn.in_off = 0;
    }
  }

  void keep(const std::string& in, std::size_t at, const Step& step) {
    if (kept_bytes_ + step.body.size() <= kKeptBodyCap) {
      kept_bytes_ += step.body.size();
      kept_.push_back(Kept{in.substr(at, step.body.size()), &step});
      return;
    }
    ++result_.compared_inline;
    if (in.compare(at, step.body.size(), step.body) == 0) {
      ++result_.ok;
    } else {
      ++result_.mismatched;
    }
  }

  LoadResult finish() {
    for (Conn& conn : conns_) kill(conn);
    for (const Kept& kept : kept_) {
      if (kept.body == kept.step->body) {
        ++result_.ok;
      } else {
        ++result_.mismatched;
      }
    }
    result_.window_s = ms_between(start_ns_, std::max(last_response_ns_, start_ns_ + 1)) / 1000.0;
    return std::move(result_);
  }

  const std::vector<Script>& scripts_;
  Cursors& cursors_;
  std::vector<Conn> conns_;
  bool closed_ = false;
  std::int64_t start_ns_ = 0;
  std::int64_t deadline_ns_ = 0;
  std::int64_t last_response_ns_ = 0;
  std::vector<Kept> kept_;
  std::size_t kept_bytes_ = 0;
  LoadResult result_;
};

}  // namespace

std::vector<double> LoadResult::all_steps() const {
  std::vector<double> all;
  for (const auto& samples : by_verb) all.insert(all.end(), samples.begin(), samples.end());
  return all;
}

LoadResult run_closed_loop(std::uint16_t port, const std::vector<Script>& scripts,
                           unsigned connections, double seconds, Cursors& cursors) {
  LoadClient client(port, scripts, connections, cursors);
  return client.closed_loop(seconds);
}

LoadResult run_open_loop(std::uint16_t port, const std::vector<Script>& scripts,
                         unsigned connections, double rate, double seconds, Cursors& cursors) {
  LoadClient client(port, scripts, connections, cursors);
  return client.open_loop(rate, seconds);
}

}  // namespace perfbench
