// Runtime SIMD dispatch (DESIGN.md §13).
//
// The one vector kernel, Teddy's literal scan, is compiled unconditionally
// (the AVX2 translation unit carries its own -mavx2) and selected at
// runtime from cpuid, so one binary runs correctly on any x86-64 and on
// non-x86 hosts (where it resolves to the scalar fallback). The `MFA_SIMD`
// environment variable overrides detection for testing both paths on the
// same machine:
//
//   MFA_SIMD=off | scalar   force the scalar fallback
//   MFA_SIMD=avx2           request AVX2 (silently falls back if the CPU
//                           lacks it — never crashes)
//
// `MFA_PREFILTER=off` (or `0`) disables the literal-prefilter gate
// independently of kernel selection (the quick-start knob in README.md).
#pragma once

namespace mfa::simd {

enum class Level {
  kScalar,  ///< portable fallback (no ISA requirements beyond the baseline)
  kAvx2,    ///< AVX2 shuffle kernel (Teddy)
};

/// Raw cpuid capability (ignores MFA_SIMD); false on non-x86.
[[nodiscard]] bool cpu_has_avx2();

/// Effective kernel level: cpuid gated by the MFA_SIMD override. Computed
/// once, thread-safe.
[[nodiscard]] Level level();

/// Stable label for telemetry/bench reports ("avx2" / "scalar").
[[nodiscard]] const char* level_name();

/// True when MFA_PREFILTER=off|0 — the prefilter gate must stay inert.
[[nodiscard]] bool prefilter_env_disabled();

}  // namespace mfa::simd
