// The "machine" object a bench JSON carries, so every committed
// BENCH_*.json says what it ran on: hardware threads, the active
// word-kernel ISA, the build type and the git revision of the checkout
// the bench was built from. Benches that include this get the two
// compile definitions it needs from bench/CMakeLists.txt.
#pragma once

#include <cstdio>
#include <string>
#include <thread>

#include "support/simd.hpp"

namespace dslayer::bench {

/// `git rev-parse` of the source tree the bench was built from, or
/// "unknown" when git or the checkout is unavailable.
inline std::string git_sha() {
  std::string sha;
  const char* command =
      "git -C \"" DSLAYER_SOURCE_DIR "\" rev-parse --short=12 HEAD 2>/dev/null";
  if (FILE* pipe = ::popen(command, "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha += buf;
    if (::pclose(pipe) != 0) sha.clear();
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

/// `  "machine": {...}` (two-space indent, no trailing comma or newline).
inline std::string machine_json() {
  return std::string("  \"machine\": {\n") +
         "    \"cores\": " + std::to_string(std::thread::hardware_concurrency()) + ",\n" +
         "    \"kernel\": \"" + support::simd::to_string(support::simd::active_kernel()) +
         "\",\n" + "    \"build_type\": \"" DSLAYER_BUILD_TYPE "\",\n" +
         "    \"git_sha\": \"" + git_sha() + "\"\n  }";
}

}  // namespace dslayer::bench
