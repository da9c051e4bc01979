// Seeded designer walks and their oracle.
//
// A walk is one designer's pass through the Sec. 5 exploration of a
// modular multiplier: open the class, enter the Fig. 8 requirements
// (without the latency bound), then before every decision ask the
// what-if questions (`options I`, `ranges I <metric>`, `range <metric>`)
// and decide — ImplementationStyle, then Algorithm, then the regular
// issues — with some retract/re-decide backtracking and occasional
// `derived`/`pending`/`reaffirm`. Render walks end at the fully decided
// leaf with `candidates` and `report`.
//
// The generator consults an in-process ShellEngine over the same catalog
// the server boots, so every emitted command is one that executed `ok`
// there: `options`/`ranges` only name enumerated issues, values come
// from available_options() or the issue's domain, and a decision that
// CC ordering or a veto rejects is never emitted. The output of that
// execution is the oracle: the exact response body the server must send.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "fixture.hpp"

namespace perfbench {

struct Step {
  std::string command;  ///< one shell command, without the session token
  std::string body;     ///< expected response body on the wire
  Verb verb = Verb::kOther;
};

/// One session's request stream: whole walks back to back. Every walk
/// starts with `open`, so replaying the script from its start (or from
/// any walk boundary) reproduces the same bodies.
struct Script {
  std::string session;
  std::vector<Step> steps;
  std::size_t walks = 0;
};

struct WalkOptions {
  std::size_t walks = 2;           ///< walks per script
  bool render_leaves = false;      ///< end walks with `candidates` + `report`
  /// Regular issues decided per walk after the generalized ones; the
  /// default descends to the fully decided leaf.
  std::size_t max_regular = SIZE_MAX;
};

/// Builds one script per session name. Script i depends only on `seed`
/// and i, so the result is the same whatever `threads` is.
std::vector<Script> generate_scripts(const Catalog& catalog,
                                     const std::vector<std::string>& sessions,
                                     std::uint64_t seed, const WalkOptions& options,
                                     unsigned threads);

/// The scripts as the wire lines the server receives, in script order —
/// the unit of the "same seed, byte-identical scripts" check.
std::string script_text(const std::vector<Script>& scripts);

/// Verb mix of the scripts, e.g. "decide 21.0% ranges 14.2% ...".
std::string verb_mix(const std::vector<Script>& scripts);

}  // namespace perfbench
