// Portable SIMD word-kernels for the columnar predicate sweeps.
//
// The columnar filter engine (dsl/core_table, DESIGN.md §14) evaluates
// predicates over structure-of-arrays columns in 64-row blocks — one
// survivor-bitmask word at a time. This module supplies the per-block
// compare kernels behind a small dispatch table so the engine never
// mentions an ISA:
//
//   * cmp_num  — (lhs [* factor]) <cmp> rhs over 64 doubles, each operand
//     either a column stream or a broadcast constant, returning one bit
//     per row. NaN semantics match dsl::compare_numbers exactly (ordered
//     compares are false on NaN, != is true), so a vectorized sweep and
//     the scalar interpreter agree bit for bit.
//   * eq_sym   — interned-symbol equality/inequality over 64 u32 lanes
//     (column vs constant or column vs column).
//
// Dispatch: kernels() picks the widest ISA the CPU supports at first use
// — AVX2 on x86-64, NEON on aarch64, scalar everywhere else — unless the
// DSLAYER_SIMD environment variable (scalar|avx2|neon|widest|auto) or
// set_kernel() forces a choice. Forcing an unsupported ISA silently
// falls back to scalar: the forced-kernel CI runs compare survivors, so
// a fallback can never hide a divergence, only a lost speedup.
//
// Column streams must be readable for the full 64-lane block: CoreTable
// pads every column payload to a whole number of 64-row words, so the
// kernels never branch on a tail (callers mask tail bits instead).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dslayer::support::simd {

enum class Kernel : std::uint8_t { kScalar, kAVX2, kNEON };

const char* to_string(Kernel kernel);

/// Comparison opcodes, numerically identical to dsl::PredicateAtom::Cmp
/// (the dsl layer static_asserts the correspondence).
enum class Cmp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// One operand stream for a 64-row block: a column pointer (64 readable
/// doubles) or, when `col` is null, a constant broadcast to every lane.
struct Lane {
  const double* col = nullptr;
  double broadcast = 0.0;
};

/// The per-block kernel table. `cmp_num` returns bit i set iff
/// (lhs_i [* factor_i]) <cmp> rhs_i holds for row i; `eq_sym` returns
/// bit i set iff col[i] == wanted (flipped when negate), with `rhs_col`
/// (when non-null) replacing the constant per lane.
struct KernelOps {
  Kernel kind = Kernel::kScalar;
  std::uint64_t (*cmp_num)(Lane lhs, Lane factor, bool has_factor, Cmp cmp, Lane rhs) = nullptr;
  std::uint64_t (*eq_sym)(const std::uint32_t* col, const std::uint32_t* rhs_col,
                          std::uint32_t wanted, bool negate) = nullptr;
};

/// The active kernel table (env- or set_kernel()-forced, else widest
/// supported). The returned reference is process-global and immutable
/// between set_kernel() calls.
const KernelOps& kernels();

/// The ISA the active table actually uses.
Kernel active_kernel();

/// Widest ISA this CPU supports.
Kernel widest_supported();

/// True if `kernel` can run on this CPU.
bool supported(Kernel kernel);

/// Forces the kernel choice (tests/benches; unsupported ISAs fall back
/// to scalar). Not thread-safe against concurrent sweeps — flip it only
/// from quiesced test/bench setup code.
void set_kernel(Kernel kernel);

/// Re-reads DSLAYER_SIMD and clears any set_kernel() override (tests).
void reset_kernel_choice();

}  // namespace dslayer::support::simd
