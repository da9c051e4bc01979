// Per-connection state for the TCP front end.
//
// Lifecycle (§12 of DESIGN.md):
//
//     kReading ──EOF/half-close──▶ kDraining ──flushed──▶ kClosing ─▶ kClosed
//         │                                                  ▲
//         └──error / idle timeout / slow reader / failpoint──┘
//
//   kReading   normal service: parse lines, submit, write responses.
//   kDraining  the client half-closed (or sent its last byte): no more
//              input, but in-flight requests still owe responses — the
//              connection lingers until every response is flushed.
//   kClosing   nothing left to say; the fd is closed this loop pass.
//   kClosed    tombstone (the map entry is erased right after).
//
// Pipelining contract: a client may write any number of request lines
// without waiting; responses come back in COMPLETION order, each one
// written whole (header + output lines contiguous on the wire), matched
// to its request by the `== <id> ...` tag. Ids are per-connection and
// assigned in arrival order, so `== 3` always answers the third line.
//
// Backpressure is two-layered. The executor sheds globally (queue
// capacity, queue-wait age); the connection additionally stops READING
// when its own in-flight count reaches the per-connection cap or its
// output buffer backs up past the soft cap — `wants_read()` is the
// single predicate the event loop consults when computing epoll
// interest. A reader that never drains responses eventually trips
// max_output_buffer_bytes and is closed as a slow reader.
//
// All fields are owned by the event-loop thread; worker threads never
// touch a Connection (completions cross over through the server's
// completion queue).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "net/line_buffer.hpp"
#include "net/socket.hpp"

namespace dslayer::net {

enum class ConnState : std::uint8_t { kReading, kDraining, kClosing, kClosed };

const char* to_string(ConnState state);

struct Connection {
  Connection(std::uint64_t id_in, Socket socket_in, std::size_t max_line_bytes)
      : id(id_in),
        socket(std::move(socket_in)),
        lines(max_line_bytes),
        last_activity(std::chrono::steady_clock::now()) {}

  std::uint64_t id;  ///< epoll token and map key
  Socket socket;
  ConnState state = ConnState::kReading;

  LineBuffer lines;               ///< inbound framing
  std::string outbox;             ///< rendered responses awaiting write
  std::size_t out_offset = 0;     ///< flushed prefix of outbox
  std::size_t in_flight = 0;      ///< submitted, response not yet in outbox
  std::uint64_t next_request_id = 0;  ///< per-connection wire ids, 1-based

  /// A directive line ('!...') is a sync point: it parks here until
  /// every earlier request on this connection has answered, and no
  /// further input is parsed (or read) until it has run.
  std::optional<std::string> pending_directive;

  /// Bumped on read/write progress and on every completion, so a
  /// connection waiting on a slow request is never idle-closed.
  std::chrono::steady_clock::time_point last_activity;

  std::size_t unflushed() const { return outbox.size() - out_offset; }

  bool wants_read(std::size_t inflight_cap, std::size_t max_output_buffer_bytes) const {
    return state == ConnState::kReading && !pending_directive && in_flight < inflight_cap &&
           unflushed() < max_output_buffer_bytes;
  }

  bool wants_write() const { return unflushed() > 0 && state != ConnState::kClosed; }

  /// Drops the flushed prefix once it dominates the buffer.
  void compact_outbox() {
    if (out_offset > 0 && out_offset >= outbox.size()) {
      outbox.clear();
      out_offset = 0;
    } else if (out_offset > 64 * 1024) {
      outbox.erase(0, out_offset);
      out_offset = 0;
    }
  }
};

}  // namespace dslayer::net
