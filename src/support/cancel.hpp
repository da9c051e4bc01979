// Request deadlines and cooperative cancellation.
//
// The exploration service promises every request a bounded outcome: a
// request that arrives with `@<ms>` in the protocol carries a Deadline,
// and long-running query work gives the deadline a chance to fire at
// cancellation checkpoints (userver-style deadline propagation, scaled
// down to one process). The pieces:
//
//   * Deadline — an optional absolute steady_clock point. Value type;
//     default-constructed means "none".
//   * DeadlineScope — RAII installer of the CURRENT thread's deadline
//     (a thread_local). The request executor installs the request's
//     deadline around command execution; installing an unset Deadline
//     SUPPRESSES any outer deadline, which is how non-cancellable
//     sections (session migration replay) protect their invariants.
//   * cancellation_checkpoint() — called from the candidate-filter hot
//     loop (the columnar engine: once per sweep, then every 16 mask
//     words of each word loop). Throws DeadlineExceeded when the
//     installed deadline has passed. Without an installed deadline it
//     is one thread-local load and a branch; with one it additionally
//     strides the clock read (every kCheckpointStride calls) so
//     frequent checkpoints stay cheap.
//
// Throw-site discipline: checkpoints live only in derived-query
// computation (candidates() and the sweeps under it), never inside
// state mutation, so a DeadlineExceeded always leaves the session's
// entries exactly as they were — the twin-session oracle test enforces
// this.
#pragma once

#include <chrono>
#include <cstdint>

namespace dslayer::support {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< no deadline

  static Deadline after_ms(double ms) {
    Deadline d;
    d.set_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }
  static Deadline at(Clock::time_point when) {
    Deadline d;
    d.set_ = true;
    d.at_ = when;
    return d;
  }

  bool set() const { return set_; }
  bool expired() const { return set_ && Clock::now() >= at_; }
  Clock::time_point time() const { return at_; }

  /// Milliseconds until expiry; negative once past, huge when unset.
  double remaining_ms() const {
    if (!set_) return 1e300;
    return std::chrono::duration<double, std::milli>(at_ - Clock::now()).count();
  }

 private:
  bool set_ = false;
  Clock::time_point at_{};
};

/// Clock reads per checkpoint are strided by this many calls.
inline constexpr std::uint32_t kCheckpointStride = 64;

/// The deadline installed on the current thread (unset if none).
Deadline current_deadline();

/// Installs `deadline` as the current thread's deadline for this scope,
/// restoring the previous one on exit. Installing an unset Deadline
/// suppresses cancellation for the scope (see header comment).
class DeadlineScope {
 public:
  explicit DeadlineScope(Deadline deadline);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  Deadline previous_;
};

/// Throws DeadlineExceeded if the current thread's deadline has passed.
/// The clock is consulted on the first call of a scope and then every
/// kCheckpointStride calls.
void cancellation_checkpoint();

/// Unstrided check without throwing; true if the installed deadline has
/// passed. For sites that prefer returning an error to unwinding.
bool cancellation_requested();

}  // namespace dslayer::support
