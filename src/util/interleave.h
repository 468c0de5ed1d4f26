// K-way interleaved scan kernel for table-driven automata.
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
// This header is engine-agnostic: Dfa and Mfa each instantiate
// interleaved_scan() with their own transition/accept callables (see
// feed_many in src/dfa/dfa.h and src/mfa/mfa.h). Lane state
// lives in small stack arrays; exhausted lanes are retired (context written
// back) and refilled from the remaining jobs, so any number of jobs runs
// with at most `lanes` streams in flight.
#pragma once

#include <algorithm>
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

/// Advance `count` independent jobs, up to `lanes` in lockstep.
///
///  - limit(job_index) -> u32                   (the job's accept limit)
///  - step(state, byte) -> next state           (the transition function)
///  - prefetch_state(state)                     (warm the next row)
///  - accept(job_index, state, end_offset) -> u32
///        called when state < the lane's accept limit; returns the new one
///
/// Accepting states are numbered first, so `state < limit` is the accept
/// test. A plain table's limit is its accepting-state count; the MFA lowers
/// it while a flow has no filter bit set (DESIGN.md §6 #11). A lane's limit
/// is read when it fills and changes only through accept's return value.
/// Per-job byte order is exactly Engine::feed's; only *cross-job* work
/// interleaves, so the per-flow match semantics are unchanged. Jobs must
/// reference distinct contexts. Contexts are written back when their job
/// retires (and are final when this returns).
template <typename Context, typename LimitFn, typename StepFn, typename PrefetchFn,
          typename AcceptFn>
void interleaved_scan(FeedJob<Context>* jobs, std::size_t count, std::size_t lanes,
                      LimitFn&& limit, StepFn&& step, PrefetchFn&& prefetch_state,
                      AcceptFn&& accept) {
  lanes = std::clamp<std::size_t>(lanes, 1, kMaxLanes);

  std::uint32_t state[kMaxLanes];
  std::uint32_t lim[kMaxLanes];
  const std::uint8_t* data[kMaxLanes];
  std::size_t pos[kMaxLanes];
  std::size_t size[kMaxLanes];
  std::uint64_t base[kMaxLanes];
  std::size_t job_ix[kMaxLanes];

  std::size_t next = 0;
  std::size_t active = 0;
  const auto fill = [&] {
    while (active < lanes && next < count) {
      const FeedJob<Context>& j = jobs[next];
      if (j.size == 0) {
        ++next;
        continue;
      }
      state[active] = j.ctx->state;
      lim[active] = limit(next);
      data[active] = j.data;
      pos[active] = 0;
      size[active] = j.size;
      base[active] = j.base;
      job_ix[active] = next;
      ++active;
      ++next;
    }
  };
  fill();

  while (active > 0) {
    // Every active lane has at least `chunk` bytes left, so the hot loop
    // below runs with no per-byte bounds checks or lane retirement.
    std::size_t chunk = size[0] - pos[0];
    for (std::size_t j = 1; j < active; ++j) chunk = std::min(chunk, size[j] - pos[j]);

    for (std::size_t i = 0; i < chunk; ++i) {
      // One independent transition load per lane per iteration: lane j's
      // load does not depend on lane k's, so the misses overlap. The
      // prefetch starts lane j's *next* row fetch while lanes j+1..K run.
      for (std::size_t j = 0; j < active; ++j) {
        const std::uint32_t s = step(state[j], data[j][pos[j] + i]);
        prefetch_state(s);
        state[j] = s;
        if (s < lim[j]) [[unlikely]] lim[j] = accept(job_ix[j], s, base[j] + pos[j] + i);
      }
    }
    for (std::size_t j = 0; j < active; ++j) pos[j] += chunk;

    // Retire exhausted lanes (write the context back), compact, refill.
    std::size_t w = 0;
    for (std::size_t j = 0; j < active; ++j) {
      if (pos[j] == size[j]) {
        jobs[job_ix[j]].ctx->state = state[j];
        continue;
      }
      if (w != j) {
        state[w] = state[j];
        lim[w] = lim[j];
        data[w] = data[j];
        pos[w] = pos[j];
        size[w] = size[j];
        base[w] = base[j];
        job_ix[w] = job_ix[j];
      }
      ++w;
    }
    active = w;
    fill();
  }
}

}  // namespace mfa::scan
