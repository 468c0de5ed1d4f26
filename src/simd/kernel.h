// Raw AVX2 kernel entry points (implemented in kernel_avx2.cpp, the one
// translation unit built with -mavx2). Callers MUST check
// simd::level() == Level::kAvx2 before calling — on a CPU without AVX2 these
// would fault, and the non-x86 build stubs them out with abort().
//
// The interfaces are deliberately flat (raw pointers, C function-pointer
// hooks) so the AVX2 TU stays template-free: all templated glue lives in
// headers compiled without -mavx2 (dense_scan.h, teddy.h) and the ISA
// surface is confined to this pair of files.
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

/// One 32-byte Teddy block: res[i] = surviving bucket mask for a candidate
/// starting at data[i] (0 = no candidate). Requires 32 + positions - 1
/// readable bytes at `data`.
void teddy_block_avx2(const TeddyTables& t, const std::uint8_t* data,
                      std::uint8_t res[32]);

/// Streaming Teddy sweep: scan 32-byte blocks starting at *pos while
/// *pos + 32 + positions - 1 <= len. On the first candidate, write its
/// surviving bucket mask to *bucket, set *pos to the candidate position and
/// return true; the caller confirms scalar-side and resumes at *pos + 1.
/// Returns false with *pos at the first unscanned block start otherwise —
/// keeping the whole per-block loop inside the -mavx2 TU costs one call per
/// buffer instead of one per block (the difference is ~3x on dirty traffic).
bool teddy_scan_avx2(const TeddyTables& t, const std::uint8_t* data,
                     std::size_t len, std::size_t* pos, std::uint8_t* bucket);

/// Accept hook for the gather kernel: (uctx, lane, state, byte_index) ->
/// the lane's new accept limit.
using AcceptHook = std::uint32_t (*)(void*, std::size_t, std::uint32_t, std::size_t);

/// Advance 8 lanes exactly `chunk` bytes through a dense row-major u32
/// transition table with AVX2 gathers: per step, the 8 lanes' next-state
/// loads issue as one gather, so their dependent chains overlap in the
/// memory system (same motivation as the scalar interleaved kernel in
/// dense_scan.h). The table is premultiplied (DESIGN.md §6 #13): entries,
/// states and limits are row offsets, so a step is `table[state + col]`.
/// states[8] is read and written back; data[8] are per-lane byte pointers
/// (already offset). limits[8] are the lanes' accept limits, read and
/// written back: `hook` fires for every state entered below its lane's
/// limit, in lane order within a step, and its return value is that lane's
/// limit from the next byte on. A lane with limit 0 never fires.
void dense_block_avx2(const std::uint32_t* table, const std::uint8_t* cols,
                      std::uint32_t* limits,
                      std::uint32_t* states, const std::uint8_t* const* data,
                      std::size_t chunk, AcceptHook hook, void* uctx);

}  // namespace mfa::simd
