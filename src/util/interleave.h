// Shared vocabulary of the K-way interleaved scan (the kernel itself is
// simd::dense_interleaved_scan in src/simd/dense_scan.h).
//
// A single flow's scan is a dependent chain: the address of byte i+1's
// transition load is the state produced by byte i's load, so the memory
// system can never overlap two of them and per-byte cost is bounded by
// load-to-use latency, not bandwidth (Hyperflex makes the same observation
// for DFA scanning). Distinct flows have *independent* chains, so advancing
// K flow contexts in lockstep through one loop issues K independent
// transition loads per iteration and lets DRAM/L2 latency overlap —
// memory-level parallelism the per-packet pipeline leaves on the floor.
//
// This header is engine-agnostic: the job type, the lane bounds and the
// prefetch helper the Dfa and Mfa feed_many() paths share.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfa::scan {

/// One stream of an interleaved scan: a per-flow context plus the in-order
/// chunk of bytes to advance it over. `base` is the stream offset of
/// data[0], exactly as in Engine::feed.
template <typename Context>
struct FeedJob {
  Context* ctx = nullptr;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::uint64_t base = 0;
};

/// Hard cap on lanes in flight: beyond ~16 the loop's live state no longer
/// fits registers/L1 and outstanding-miss slots are exhausted anyway.
inline constexpr std::size_t kMaxLanes = 16;

/// Default interleave width: 8 independent loads per iteration saturates
/// the load-miss parallelism of current cores without spilling lane state.
inline constexpr std::size_t kDefaultLanes = 8;

/// Read-prefetch `p` into all cache levels; no-op on compilers without the
/// intrinsic. Issued as soon as a lane's next row address is known so the
/// line is (partially) in flight while the other lanes take their turn.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace mfa::scan
