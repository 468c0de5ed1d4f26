// The K-way interleaved scan over a dense row-major transition table: one
// lane manager, two per-chunk kernels. Per-job byte order (and therefore
// per-flow match semantics) is exactly Engine::feed's; only cross-job work
// interleaves. On AVX2 hosts 8 lanes advance with one gather per byte
// (dense_block_avx2); elsewhere, under MFA_SIMD=scalar, or for narrower
// requests, the scalar kernel issues one independent load per lane per
// byte. Dfa::feed_many and Mfa::feed_many route here, so this header is
// safe to use unconditionally.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"
#include "simd/kernel.h"
#include "util/interleave.h"

namespace mfa::simd {

/// Advance `count` independent jobs through `table`, up to `lanes` in
/// lockstep. `table` is a dense table in the premultiplied form of
/// dfa::Dfa (DESIGN.md §6 #13): table_data() and byte_columns() for the
/// gather, step(offset, byte) for the scalar kernel, and row_offset() /
/// state_of() to convert raw ids.
///
///  - limit(job_index) -> u32, the job's accept limit (a raw state id, at
///    most the state count);
///  - accept(job_index, state, end_offset) -> u32, called on every state
///    entered below the lane's limit; returns the new limit.
///
/// Accepting states are numbered first, so `state < limit` is the accept
/// test. A plain table's limit is its accepting-state count; the MFA lowers
/// it while a flow has no filter bit set (DESIGN.md §6 #11). A lane's limit
/// is read when it fills and changes only through accept's return value.
/// Contexts and both callables see raw ids: a lane converts its state and
/// limit to row offsets at fill, a state back at each accept, and writes
/// the raw id back to its context when its job retires. Jobs must
/// reference distinct contexts.
template <typename Table, typename Context, typename LimitFn, typename AcceptFn>
void dense_interleaved_scan(const Table& table, scan::FeedJob<Context>* jobs,
                            std::size_t count, std::size_t lanes, LimitFn&& limit,
                            AcceptFn&& accept) {
  // The gather kernel is fixed at 8 lanes; narrower requests (K < 8 lane
  // sweeps, tiny batches) keep the scalar kernel, which handles any width.
  constexpr std::size_t kGatherLanes = 8;
  const bool gather = level() == Level::kAvx2 && lanes >= kGatherLanes && count >= 2;
  lanes = gather ? kGatherLanes : std::clamp<std::size_t>(lanes, 1, scan::kMaxLanes);

  std::uint32_t state[scan::kMaxLanes];  // row offsets
  std::uint32_t lim[scan::kMaxLanes];    // row offsets
  const std::uint8_t* data[scan::kMaxLanes];
  std::size_t pos[scan::kMaxLanes];
  std::size_t size[scan::kMaxLanes];
  std::uint64_t base[scan::kMaxLanes];
  std::size_t job_ix[scan::kMaxLanes];

  std::size_t next = 0;
  std::size_t active = 0;
  const auto fill = [&] {
    while (active < lanes && next < count) {
      const scan::FeedJob<Context>& j = jobs[next];
      if (j.size == 0) {
        ++next;
        continue;
      }
      state[active] = table.row_offset(j.ctx->state);
      lim[active] = table.row_offset(limit(next));
      data[active] = j.data;
      pos[active] = 0;
      size[active] = j.size;
      base[active] = j.base;
      job_ix[active] = next;
      ++active;
      ++next;
    }
  };
  // Lane `l` entered row offset `s` at chunk byte `i`: its new limit.
  auto on_accept = [&](std::size_t l, std::uint32_t s, std::size_t i) {
    return table.row_offset(accept(job_ix[l], table.state_of(s), base[l] + pos[l] + i));
  };
  fill();

  while (active > 0) {
    // Every active lane has at least `chunk` bytes left, so the kernels
    // run with no per-byte bounds checks or lane retirement.
    std::size_t chunk = size[0] - pos[0];
    for (std::size_t j = 1; j < active; ++j) chunk = std::min(chunk, size[j] - pos[j]);

    if (gather) {
      // Pad idle lanes with lane 0 so the fixed-width kernel always runs 8:
      // the duplicate pointers stay readable for `chunk` bytes, their
      // states are ignored, and their limit of 0 keeps them from accepting.
      const std::uint8_t* dptr[kGatherLanes];
      std::uint32_t st[kGatherLanes];
      for (std::size_t j = 0; j < kGatherLanes; ++j) {
        const std::size_t src = j < active ? j : 0;
        dptr[j] = data[src] + pos[src];
        st[j] = state[src];
        if (j >= active) lim[j] = 0;
      }
      // The AVX2 TU takes a C function pointer: trampoline to on_accept.
      dense_block_avx2(
          table.table_data(), table.byte_columns(), lim, st, dptr, chunk,
          [](void* u, std::size_t lane, std::uint32_t s, std::size_t i) -> std::uint32_t {
            return (*static_cast<decltype(on_accept)*>(u))(lane, s, i);
          },
          &on_accept);
      std::copy(st, st + active, state);
    } else {
      const std::uint32_t* rows = table.table_data();
      for (std::size_t i = 0; i < chunk; ++i) {
        // One independent transition load per lane per iteration: lane j's
        // load does not depend on lane k's, so the misses overlap. The
        // prefetch starts lane j's *next* row fetch while lanes j+1..K run.
        for (std::size_t j = 0; j < active; ++j) {
          const std::uint32_t s = table.step(state[j], data[j][pos[j] + i]);
          scan::prefetch_ro(rows + s);
          state[j] = s;
          if (s < lim[j]) [[unlikely]] lim[j] = on_accept(j, s, i);
        }
      }
    }
    for (std::size_t j = 0; j < active; ++j) pos[j] += chunk;

    // Retire exhausted lanes (write the context back), compact, refill.
    std::size_t w = 0;
    for (std::size_t j = 0; j < active; ++j) {
      if (pos[j] == size[j]) {
        jobs[job_ix[j]].ctx->state = table.state_of(state[j]);
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

}  // namespace mfa::simd
