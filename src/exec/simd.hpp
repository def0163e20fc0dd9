// Runtime-dispatched SIMD pack kernels for the executor hot loops.
//
// The executor's pack side — payload[k] = local[items[k]] over a schedule's
// index vector — is the textbook SIMD-gather case: AVX2's vpgatherdd/dq
// consumes exactly this shape (32-bit indices, 4/8-byte elements). The
// unpack and combine sides stay scalar: x86 has no AVX2 scatter, and the
// combine order per accumulator is part of the bit-determinism contract.
//
// Dispatch is resolved once per process: `STANCE_SIMD` overrides (`off` /
// `scalar` force the scalar loops, `avx2` requires the instruction set,
// `auto`/unset probes the CPU), then __builtin_cpu_supports picks the best
// supported path. The AVX2 bodies are compiled with a function-level target
// attribute, so the default build (no -march flags; STANCE_NATIVE is
// opt-in) still carries them and selects at runtime.
//
// A gather is a pure element copy — no arithmetic, no reassociation — so
// the SIMD path is byte-identical to the scalar loop by construction. The
// kernel oracle (tests/test_simd.cpp) compares the two paths directly; the
// executor oracles there check every executor against its sequential
// reference, and ctest runs them once more under STANCE_SIMD=scalar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace stance::exec::simd {

enum class Mode : std::uint8_t {
  kAuto = 0,   ///< resolve from STANCE_SIMD + CPU probe (the default)
  kScalar,     ///< force the scalar loops
  kAvx2,       ///< force AVX2 gathers (resolve() rejects it if unsupported)
};

[[nodiscard]] const char* mode_name(Mode mode) noexcept;

/// True when the CPU (and compiler) can run the AVX2 path.
[[nodiscard]] bool avx2_supported() noexcept;

/// The process-wide resolved mode: STANCE_SIMD override if set (malformed
/// values throw, per the support/env.hpp philosophy), else kAvx2 when
/// supported, else kScalar. Resolved once, on first use. Never kAuto.
[[nodiscard]] Mode dispatch_mode();

/// Resolve a requested mode to an executable one: kAuto becomes
/// dispatch_mode(); kAvx2 throws std::invalid_argument when unsupported.
[[nodiscard]] Mode resolve(Mode requested);

namespace detail {
// Non-templated kernels (defined in simd.cpp with target attributes).
// dst[k] = src[idx[k]] for k in [0, n).
void pack_gather_u32_avx2(const std::uint32_t* src, const std::int32_t* idx,
                          std::size_t n, std::uint32_t* dst);
void pack_gather_u64_avx2(const std::uint64_t* src, const std::int32_t* idx,
                          std::size_t n, std::uint64_t* dst);
}  // namespace detail

/// dst[k] = src[idx[k]] for k in [0, n). `mode` kAuto defers to
/// dispatch_mode(); 4- and 8-byte trivially-copyable elements take the AVX2
/// gather when selected, every other shape runs the scalar loop. Indices
/// are the schedule's Vertex (int32) lists.
template <typename T>
inline void pack_indexed(const T* src, const std::int32_t* idx, std::size_t n, T* dst,
                         Mode mode = Mode::kAuto) {
  if constexpr (sizeof(T) == 4 || sizeof(T) == 8) {
    if (mode == Mode::kAuto) mode = dispatch_mode();
    if (mode == Mode::kAvx2) {
      // Byte-punned integer gathers: a gather is a pure copy, so moving the
      // element bits through integer lanes is exact for any payload type.
      if constexpr (sizeof(T) == 8) {
        detail::pack_gather_u64_avx2(reinterpret_cast<const std::uint64_t*>(src), idx, n,
                                     reinterpret_cast<std::uint64_t*>(dst));
      } else {
        detail::pack_gather_u32_avx2(reinterpret_cast<const std::uint32_t*>(src), idx, n,
                                     reinterpret_cast<std::uint32_t*>(dst));
      }
      return;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    dst[k] = src[static_cast<std::size_t>(idx[k])];
  }
}

}  // namespace stance::exec::simd
