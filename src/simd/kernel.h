// The raw AVX2 kernel entry point (implemented in kernel_avx2.cpp, the one
// translation unit built with -mavx2): the Teddy literal sweep, nothing
// else. Callers MUST check simd::level() == Level::kAvx2 before calling —
// on a CPU without AVX2 it would fault, and the non-x86 build stubs it out
// with abort().
//
// The interface is deliberately flat (raw pointers), so nothing templated
// crosses the ISA boundary: the caller side lives in teddy.{h,cpp},
// compiled without -mavx2, and the ISA surface is confined to this pair of
// files.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfa::simd {

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define MFA_SIMD_X86 1
#endif

/// Teddy nibble-mask tables: for mask position j and nibble value n,
/// lo[j][n] / hi[j][n] are 8-bit bucket masks — bit b set means some literal
/// in bucket b has a byte at position j whose low/high nibble is n. A byte
/// matches position j for bucket b iff bit b survives the AND of its two
/// nibble lookups; a *position* is a candidate iff some bucket bit survives
/// the AND across all `positions` consecutive bytes.
struct TeddyTables {
  std::uint8_t lo[3][16] = {};
  std::uint8_t hi[3][16] = {};
  int positions = 0;  ///< mask positions in use: 1..3
};

/// Streaming Teddy sweep: scan 32-byte blocks starting at *pos while
/// *pos + 32 + positions - 1 <= len. On the first candidate, write its
/// surviving bucket mask to *bucket, set *pos to the candidate position and
/// return true; the caller confirms scalar-side and resumes at *pos + 1.
/// Returns false with *pos at the first unscanned block start otherwise —
/// keeping the whole per-block loop inside the -mavx2 TU costs one call per
/// buffer instead of one per block (the difference is ~3x on dirty traffic).
bool teddy_scan_avx2(const TeddyTables& t, const std::uint8_t* data,
                     std::size_t len, std::size_t* pos, std::uint8_t* bucket);

}  // namespace mfa::simd
