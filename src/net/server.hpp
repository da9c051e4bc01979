// Non-blocking TCP front end for the exploration service.
//
// One epoll event-loop thread owns the listener and every connection;
// request execution stays on the RequestExecutor's worker pool. The
// seam between the two is a completion queue: workers render the
// response off-loop, push {connection, bytes}, and poke an eventfd; the
// loop applies completions to connection outboxes between socket
// events. Connections are therefore single-threaded state machines
// (net/connection.hpp) and the loop never blocks on a socket.
//
// Wire protocol: exactly the batch/serve newline protocol
// (service/protocol.hpp) — `<session>[@ms] <command>` lines in,
// `== <id> <session> <status> ...` responses out, `!` directives as
// synchronization points. Responses stream in completion order, whole-
// response-atomic, with per-connection 1-based ids for matching. The
// per-request steps (classify, id + trace, invalid answers, submit or
// refuse, terminal accounting) are service::FrontEndCore's, shared with
// batch and serve; this file keeps only outboxes and directive barriers.
//
// Overload behavior composes three layers:
//   * executor queue capacity / queue-wait shedding → per-request
//     kRejected/kOverloaded responses with retry-after hints;
//   * per-connection in-flight cap and output-buffer soft cap → the
//     loop stops READING that connection (TCP backpressure reaches the
//     client) while others proceed;
//   * max_connections → accepts past the cap are answered with one
//     rejection line and closed.
//
// Failpoints (support/failpoint.hpp): "net.conn.accept",
// "net.conn.read", "net.conn.write" — error mode aborts the connection
// at that boundary (mid-line disconnects, write-path failures), delay
// mode stalls the loop (slow-network chaos). Armable at runtime over
// the wire via the `!failpoint` directive.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "net/socket.hpp"
#include "service/batch_runner.hpp"
#include "service/protocol.hpp"

namespace dslayer::net {

class NetServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = kernel-assigned (see port())
    std::size_t max_connections = 1024;
    /// Pipelining depth: requests in flight per connection before the
    /// loop stops reading it (backpressure via TCP, not rejection).
    std::size_t conn_inflight_cap = 32;
    /// Connections with no read/write/completion activity for this long
    /// are closed — the slowloris/half-open defense. 0 = never.
    double idle_timeout_ms = 0.0;
    /// Slow-reader cutoff: a connection whose unflushed output exceeds
    /// this is closed (it stopped being read long before this point).
    std::size_t max_output_buffer_bytes = 4 * 1024 * 1024;
    std::size_t max_line_bytes = service::kMaxRequestLineBytes;
  };

  /// `context` is the same DirectiveContext the stream front ends build
  /// (manager, executor, optional durable catalog); the server injects
  /// its own connection counters as `front_end`.
  NetServer(service::DirectiveContext context, Options options);
  ~NetServer();  ///< stop() if still running

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the loop thread. False + *error on bind
  /// failure. The executor must outlive stop().
  bool start(std::string* error);

  /// The bound port (resolves Options::port == 0). Valid after start().
  std::uint16_t port() const { return port_; }

  /// Stops accepting, closes every connection, joins the loop thread,
  /// and drains the executor of callbacks that target this server.
  /// Idempotent; called by the destructor.
  void stop();

  /// Connection-lifecycle counters: `requests` counts well-formed
  /// requests submitted, `invalid_lines` the malformed lines answered
  /// inline, `responses` what reached an outbox.
  service::FrontEndCounters stats() const;

 private:
  struct Completion {
    std::uint64_t conn_id;
    std::string rendered;
  };

  void loop();
  void handle_accept();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  void pump(Connection& conn);
  void parse_buffered(Connection& conn);
  void run_pending_directive(Connection& conn);
  void apply_completions();
  void sweep_idle();
  void update_interest(Connection& conn);
  void close_connection(Connection& conn);
  void enqueue_completion(std::uint64_t conn_id, std::string rendered);
  void wake();

  /// The per-request steps shared with batch/serve; its context carries
  /// this server's counters into `!stats`/`!metrics` (service cannot
  /// depend on net, so they travel as a snapshot provider).
  service::FrontEndCore core_;
  Options options_;

  Socket listener_;
  Socket epoll_;
  Socket wakeup_;  ///< eventfd: workers poke the loop after a completion
  std::uint16_t port_ = 0;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::uint64_t, std::uint32_t> interest_;  ///< registered epoll events
  std::uint64_t next_conn_id_ = 2;  ///< 0 = listener, 1 = wakeup

  // Worker → loop handoff.
  std::mutex completions_lock_;
  std::vector<Completion> completions_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  // Stats counters (relaxed: monotonic telemetry, read from any thread).
  std::atomic<std::uint64_t> accepted_{0}, closed_{0}, rejected_connects_{0}, requests_{0},
      responses_{0}, invalid_lines_{0}, oversized_lines_{0}, directives_{0}, idle_closed_{0},
      slow_reader_closed_{0}, faulted_{0};
  std::atomic<std::size_t> open_connections_{0};

  std::thread loop_thread_;
};

}  // namespace dslayer::net
