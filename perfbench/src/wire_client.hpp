// The benchmark's TCP client: one thread, at most four loopback
// connections, every request timed at the client from raw samples.
//
//   closed loop  every script keeps one request in flight, its next one
//                sent when the previous response has fully arrived;
//                scripts share the connections round-robin.
//   open loop    many scripts spread over the connections, pipelined;
//                request k is due at start + k / rate and is timed from
//                that due time, so a stall is charged to every request
//                it delays. How late the client itself ran is recorded.
//
// The protocol has no length prefix, so the oracle frames the stream: an
// `ok` header is followed by exactly the expected body's byte count. A
// body of another length desynchronizes the next header, which fails
// every request still outstanding on that connection. Bodies are kept
// and compared with the oracle after the timed window (inline only past
// a memory cap), so the comparison never shares CPU with the measurement.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "walks.hpp"

namespace perfbench {

struct LoadResult {
  /// Latency samples in ms, per Verb, of `ok` responses.
  std::array<std::vector<double>, 4> by_verb;
  std::vector<double> lateness_ms;  ///< open loop: send time minus due time

  std::uint64_t attempted = 0;   ///< requests sent
  std::uint64_t ok = 0;          ///< `ok` responses whose body matched
  std::uint64_t not_ok = 0;      ///< error / rejected / deadline responses
  std::uint64_t unanswered = 0;  ///< never answered (connection lost or drain timeout)
  std::uint64_t mismatched = 0;  ///< `ok` responses whose body differs from the oracle
  std::uint64_t compared_inline = 0;  ///< bodies compared during the window (memory cap)
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double window_s = 0.0;  ///< first send to last response

  std::uint64_t failed() const { return not_ok + unanswered + mismatched; }
  std::vector<double> all_steps() const;
};

/// Per-script position in its stream; carried across open-loop rungs.
using Cursors = std::vector<std::size_t>;

/// Closed loop: script i runs on connection i % connections.
LoadResult run_closed_loop(std::uint16_t port, const std::vector<Script>& scripts,
                           unsigned connections, double seconds, Cursors& cursors);

/// Open loop at `rate` requests/s over `connections` connections;
/// scripts take turns round-robin.
LoadResult run_open_loop(std::uint16_t port, const std::vector<Script>& scripts,
                         unsigned connections, double rate, double seconds, Cursors& cursors);

}  // namespace perfbench
