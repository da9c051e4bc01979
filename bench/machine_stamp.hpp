// The "machine" object a bench JSON carries, so every committed
// BENCH_*.json says what it ran on: hardware threads, the active
// word-kernel ISA, the build type and the git revision of the checkout
// the bench was built from. Benches that include this get the two
// compile definitions it needs from bench/CMakeLists.txt.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "support/simd.hpp"

namespace dslayer::bench {

/// Output of `git -C <source dir> <args>`, or nullopt when git fails.
inline std::optional<std::string> git_output(const char* args) {
  const std::string command =
      std::string("git -C \"" DSLAYER_SOURCE_DIR "\" ") + args + " 2>/dev/null";
  std::string out;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  if (::pclose(pipe) != 0) return std::nullopt;
  return out;
}

/// `git rev-parse` of the source tree the bench was built from, with a
/// "-dirty" suffix when tracked files differ from HEAD (so a bench file
/// regenerated before its change is committed does not name the parent
/// commit as if it were that code), or "unknown" when git or the
/// checkout is unavailable.
inline std::string git_sha() {
  std::string sha = git_output("rev-parse --short=12 HEAD").value_or("");
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  if (sha.empty()) return "unknown";
  const auto changes = git_output("status --porcelain --untracked-files=no");
  if (changes.has_value() && !changes->empty()) sha += "-dirty";
  return sha;
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
