#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "service/batch_runner.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer::net {

using service::FrontEndCore;
using service::Response;

namespace {

constexpr std::uint64_t kListenerToken = 0;
constexpr std::uint64_t kWakeupToken = 1;
/// Per-pass read bound: level-triggered epoll re-arms, so capping one
/// connection's turn keeps a firehose sender from starving the rest.
constexpr std::size_t kMaxReadPerPass = 256 * 1024;

}  // namespace

NetServer::NetServer(service::DirectiveContext context, Options options)
    : core_([&] {
        context.front_end = [this] { return stats(); };
        return std::move(context);
      }()),
      options_(options) {
  DSLAYER_REQUIRE(options_.conn_inflight_cap > 0, "per-connection in-flight cap must be positive");
  DSLAYER_REQUIRE(options_.max_connections > 0, "connection cap must be positive");
}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string* error) {
  DSLAYER_REQUIRE(!started_.load(), "server already started");
  listener_ = listen_tcp(options_.port, error);
  if (!listener_.valid()) return false;
  port_ = local_port(listener_.fd());
  epoll_ = Socket(::epoll_create1(EPOLL_CLOEXEC));
  wakeup_ = Socket(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!epoll_.valid() || !wakeup_.valid()) {
    if (error != nullptr) *error = cat("epoll/eventfd setup: ", std::strerror(errno));
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.data.u64 = kWakeupToken;
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, wakeup_.fd(), &ev);
  started_ = true;
  loop_thread_ = std::thread([this] { loop(); });
  return true;
}

void NetServer::stop() {
  if (!started_.load()) return;
  stopping_ = true;
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Worker callbacks submitted by this server touch completions_lock_
  // and the wakeup fd; drain the executor so none outlive these
  // members. (A no-op if the caller already shut the executor down.)
  core_.executor().drain();
  connections_.clear();
  interest_.clear();
  {
    std::lock_guard<std::mutex> lock(completions_lock_);
    completions_.clear();
  }
  started_ = false;
  stopping_ = false;
}

service::FrontEndCounters NetServer::stats() const {
  service::FrontEndCounters stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.closed = closed_.load(std::memory_order_relaxed);
  stats.rejected_connects = rejected_connects_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.invalid_lines = invalid_lines_.load(std::memory_order_relaxed);
  stats.oversized_lines = oversized_lines_.load(std::memory_order_relaxed);
  stats.directives = directives_.load(std::memory_order_relaxed);
  stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  stats.slow_reader_closed = slow_reader_closed_.load(std::memory_order_relaxed);
  stats.faulted = faulted_.load(std::memory_order_relaxed);
  stats.open_connections = open_connections_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wakeup_.fd(), &one, sizeof(one));
}

void NetServer::enqueue_completion(std::uint64_t conn_id, std::string rendered) {
  {
    std::lock_guard<std::mutex> lock(completions_lock_);
    completions_.push_back(Completion{conn_id, std::move(rendered)});
  }
  wake();
}

void NetServer::loop() {
  // Sweep often enough that idle closes land within ~a quarter of the
  // configured timeout; with no timeout the loop only wakes for events.
  int timeout_ms = 200;
  if (options_.idle_timeout_ms > 0) {
    timeout_ms = std::clamp(static_cast<int>(options_.idle_timeout_ms / 4), 5, 100);
  }
  epoll_event events[64];
  while (!stopping_.load()) {
    const int n = ::epoll_wait(epoll_.fd(), events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kListenerToken) {
        handle_accept();
        continue;
      }
      if (token == kWakeupToken) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto r = ::read(wakeup_.fd(), &drained, sizeof(drained));
        continue;
      }
      const auto it = connections_.find(token);
      if (it == connections_.end()) continue;  // closed earlier this pass
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        ++faulted_;
        close_connection(conn);
      } else {
        if ((events[i].events & EPOLLIN) != 0) handle_readable(conn);
        if (conn.state != ConnState::kClosed && (events[i].events & EPOLLOUT) != 0) {
          handle_writable(conn);
        }
        if (conn.state != ConnState::kClosed) pump(conn);
      }
      if (conn.state == ConnState::kClosed) connections_.erase(token);
    }
    apply_completions();
    sweep_idle();
  }
  // Teardown on the loop thread: every fd dies here, so no other thread
  // ever races a close.
  for (auto& [id, conn] : connections_) {
    if (conn->state != ConnState::kClosed) {
      ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
      conn->socket.reset();
      conn->state = ConnState::kClosed;
      ++closed_;
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void NetServer::handle_accept() {
  for (;;) {
    Socket client(::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!client.valid()) return;  // EAGAIN / transient accept error: wait for the next event
    try {
      DSLAYER_FAILPOINT("net.conn.accept");
    } catch (const FailpointError&) {
      ++faulted_;
      continue;  // the just-accepted socket closes: an accept-time fault
    }
    if (connections_.size() >= options_.max_connections) {
      // Best-effort one-line refusal so the client sees policy, not a
      // silent RST; the socket closes either way.
      Response refusal;
      refusal.session = "-";
      refusal.status = service::ResponseStatus::kRejected;
      refusal.code = service::ErrorCode::kOverloaded;
      refusal.retry_after_ms = core_.executor().retry_after_hint_ms();
      refusal.output = "error: server at connection capacity — retry later\n";
      const std::string rendered = service::render_response(refusal);
      [[maybe_unused]] const auto n =
          ::send(client.fd(), rendered.data(), rendered.size(), MSG_NOSIGNAL);
      ++rejected_connects_;
      continue;
    }
    set_tcp_nodelay(client.fd());
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(id, std::move(client), options_.max_line_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, conn->socket.fd(), &ev) != 0) continue;
    interest_[id] = EPOLLIN;
    connections_.emplace(id, std::move(conn));
    ++accepted_;
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::handle_readable(Connection& conn) {
  try {
    DSLAYER_FAILPOINT("net.conn.read");
  } catch (const FailpointError&) {
    // Injected mid-line disconnect: whatever was buffered is lost, the
    // connection dies abruptly — workers still in flight must complete
    // harmlessly against the tombstone.
    ++faulted_;
    close_connection(conn);
    return;
  }
  std::size_t taken = 0;
  char buf[16384];
  while (taken < kMaxReadPerPass) {
    const ssize_t n = ::read(conn.socket.fd(), buf, sizeof(buf));
    if (n > 0) {
      conn.lines.append(buf, static_cast<std::size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      taken += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      // EOF / half-close: no more input, but buffered lines still parse
      // and in-flight responses still deliver before the socket closes.
      if (conn.state == ConnState::kReading) conn.state = ConnState::kDraining;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    ++faulted_;
    close_connection(conn);
    return;
  }
}

void NetServer::parse_buffered(Connection& conn) {
  // Malformed and oversized lines are answered inline, on this thread.
  const FrontEndCore::Write answer = [this, &conn](const Response& response) {
    conn.outbox += service::render_response(response);
    ++responses_;
  };
  std::string line;
  for (;;) {
    if (conn.pending_directive) return;  // sync point: stop until it runs
    if (conn.in_flight >= options_.conn_inflight_cap) return;
    const auto received = std::chrono::steady_clock::now();
    const LineBuffer::Status status = conn.lines.next(line);
    if (status == LineBuffer::Status::kNeedMore) return;
    if (status == LineBuffer::Status::kOversized) {
      ++oversized_lines_;
      core_.answer_invalid(
          conn.next_request_id,
          cat("request line over ", std::to_string(options_.max_line_bytes), " bytes"), answer);
      continue;
    }
    FrontEndCore::Line accepted = core_.accept(line, conn.next_request_id, received, answer);
    if (accepted.kind == FrontEndCore::LineKind::kInvalid) {
      ++invalid_lines_;
    } else if (accepted.kind == FrontEndCore::LineKind::kDirective && trim(line) == "!metrics") {
      // Scrapes must not block behind a busy queue: the payload is built
      // purely from thread-safe snapshots, so serve it inline instead of
      // parking as a barrier like the other directives.
      std::ostringstream out;
      service::run_directive(core_.context(), line, out);
      conn.outbox += out.str();
      ++directives_;
      conn.last_activity = std::chrono::steady_clock::now();
    } else if (accepted.kind == FrontEndCore::LineKind::kDirective) {
      conn.pending_directive = line;  // the loop head parks until in_flight reaches zero
    } else if (accepted.kind == FrontEndCore::LineKind::kRequest) {
      ++requests_;
      // Every submitted request, even one refused at the door, answers
      // through the completion queue, so it is in flight until then.
      ++conn.in_flight;
      const std::uint64_t conn_id = conn.id;
      core_.try_submit(std::move(accepted.request), [this, conn_id](const Response& response) {
        // Render where the response completes (a worker, or this thread
        // for a refusal), hand the bytes over, poke the loop. Never
        // touches the Connection itself. The respond span covers render +
        // handoff: the socket write happens on the loop thread a wakeup
        // later.
        enqueue_completion(conn_id, service::render_response(response));
      });
    }
  }
}

void NetServer::run_pending_directive(Connection& conn) {
  // A directive observes exactly the state after every request above it:
  // this connection's requests have all answered (in_flight == 0 gates
  // the call), and the core's executor drain extends that to the whole
  // executor, matching batch/serve semantics for !stats and !sessions.
  std::ostringstream out;
  core_.directive(*conn.pending_directive, out);
  conn.outbox += out.str();
  conn.pending_directive.reset();
  ++directives_;
  conn.last_activity = std::chrono::steady_clock::now();
}

void NetServer::pump(Connection& conn) {
  for (;;) {
    parse_buffered(conn);
    if (conn.pending_directive && conn.in_flight == 0) {
      run_pending_directive(conn);
      continue;  // the directive may unblock further buffered lines
    }
    break;
  }
  if (conn.unflushed() > 0) handle_writable(conn);
  if (conn.state == ConnState::kClosed) return;
  if (conn.unflushed() > options_.max_output_buffer_bytes) {
    // Slow reader: it stopped draining responses long ago; holding its
    // bytes any longer just converts one bad client into memory growth.
    ++slow_reader_closed_;
    close_connection(conn);
    return;
  }
  if (conn.state == ConnState::kDraining && conn.in_flight == 0 && !conn.pending_directive &&
      conn.unflushed() == 0) {
    conn.state = ConnState::kClosing;
    close_connection(conn);
    return;
  }
  update_interest(conn);
}

void NetServer::handle_writable(Connection& conn) {
  try {
    DSLAYER_FAILPOINT("net.conn.write");
  } catch (const FailpointError&) {
    ++faulted_;
    close_connection(conn);
    return;
  }
  while (conn.unflushed() > 0) {
    const ssize_t n = ::send(conn.socket.fd(), conn.outbox.data() + conn.out_offset,
                             conn.unflushed(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ++faulted_;
    close_connection(conn);
    return;
  }
  conn.compact_outbox();
}

void NetServer::apply_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_lock_);
    batch.swap(completions_);
  }
  for (auto& completion : batch) {
    const auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died first; drop
    Connection& conn = *it->second;
    if (conn.state == ConnState::kClosed) continue;
    conn.outbox += completion.rendered;
    ++responses_;
    DSLAYER_REQUIRE(conn.in_flight > 0, "completion without an in-flight request");
    --conn.in_flight;
    conn.last_activity = std::chrono::steady_clock::now();
    pump(conn);  // may resume parsing, run a parked directive, or close
    if (conn.state == ConnState::kClosed) connections_.erase(completion.conn_id);
  }
}

void NetServer::sweep_idle() {
  if (options_.idle_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> victims;
  for (const auto& [id, conn] : connections_) {
    const double idle_ms =
        std::chrono::duration<double, std::milli>(now - conn->last_activity).count();
    if (idle_ms > options_.idle_timeout_ms) victims.push_back(id);
  }
  for (const std::uint64_t id : victims) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    // Covers silent clients, slowloris drip-feeders stuck mid-line, and
    // half-open sockets whose peer vanished without a FIN.
    ++idle_closed_;
    close_connection(*it->second);
    connections_.erase(it);
  }
}

void NetServer::update_interest(Connection& conn) {
  std::uint32_t events = 0;
  if (conn.wants_read(options_.conn_inflight_cap, options_.max_output_buffer_bytes)) {
    events |= EPOLLIN;
  }
  if (conn.wants_write()) events |= EPOLLOUT;
  const auto it = interest_.find(conn.id);
  if (it != interest_.end() && it->second == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_MOD, conn.socket.fd(), &ev) == 0) {
    interest_[conn.id] = events;
  }
}

void NetServer::close_connection(Connection& conn) {
  if (conn.state == ConnState::kClosed) return;
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, conn.socket.fd(), nullptr);
  conn.state = ConnState::kClosed;
  interest_.erase(conn.id);
  ++closed_;
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  // Close the fd last: the peer observes EOF only after the counters have
  // settled, so "wait for close, then read stats" never sees a stale count.
  conn.socket.reset();
}

}  // namespace dslayer::net
