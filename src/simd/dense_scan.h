// Vectorized K-way interleaved scan over a dense row-major u32 transition
// table — the AVX2 sibling of scan::interleaved_scan, with identical
// semantics: per-job byte order (and therefore per-flow match semantics) is
// exactly Engine::feed's, only cross-job work is data-parallel. Dfa::feed_many
// and Mfa::feed_many route here; on non-AVX2 hosts (or under MFA_SIMD=scalar)
// everything falls through to the scalar interleaved kernel, so this header
// is safe to use unconditionally.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"
#include "simd/kernel.h"
#include "util/interleave.h"

namespace mfa::simd {

/// Advance `count` independent jobs through a dense table, up to `lanes` in
/// lockstep, with interleaved_scan's accept-limit contract:
/// accept(job_index, state, end_offset) fires on every state entered below
/// the lane's limit (limit(job_index) at fill) and returns the new limit.
/// Jobs must reference distinct contexts (their .state is read at lane fill
/// and written back at retirement, as in interleaved_scan).
template <typename Context, typename LimitFn, typename AcceptFn>
void dense_interleaved_scan(const std::uint32_t* table, std::uint32_t ncols,
                            const std::uint8_t* cols, scan::FeedJob<Context>* jobs,
                            std::size_t count, std::size_t lanes, LimitFn&& limit,
                            AcceptFn&& accept) {
  // The gather kernel is fixed at 8 lanes; narrower requests (K < 8 lane
  // sweeps, tiny batches) keep the scalar kernel, which handles any width.
  if (level() != Level::kAvx2 || lanes < 8 || count < 2) {
    scan::interleaved_scan(
        jobs, count, lanes, limit,
        [=](std::uint32_t s, std::uint8_t b) {
          return table[static_cast<std::size_t>(s) * ncols + cols[b]];
        },
        [=](std::uint32_t s) {
          scan::prefetch_ro(table + static_cast<std::size_t>(s) * ncols);
        },
        accept);
    return;
  }

  constexpr std::size_t kLanes = 8;
  std::uint32_t state[kLanes];
  std::uint32_t lim[kLanes];
  const std::uint8_t* data[kLanes];
  std::size_t pos[kLanes];
  std::size_t size[kLanes];
  std::uint64_t base[kLanes];
  std::size_t job_ix[kLanes];

  std::size_t next = 0;
  std::size_t active = 0;
  const auto fill = [&] {
    while (active < kLanes && next < count) {
      const scan::FeedJob<Context>& j = jobs[next];
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

  // Accept trampoline: the AVX2 TU takes a C function pointer, so the
  // caller's AcceptFn is re-typed through this capture block.
  struct Hook {
    AcceptFn* fn;
    const std::size_t* job_ix;
    const std::uint64_t* base;
    const std::size_t* pos;
  };

  while (active > 0) {
    std::size_t chunk = size[0] - pos[0];
    for (std::size_t j = 1; j < active; ++j)
      chunk = std::min(chunk, size[j] - pos[j]);

    // Pad idle lanes with lane 0 so the fixed-width kernel always runs 8:
    // the duplicate pointers stay readable for `chunk` bytes, their states
    // are ignored, and their limit of 0 keeps them from ever accepting.
    const std::uint8_t* dptr[kLanes];
    std::uint32_t st[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::size_t src = j < active ? j : 0;
      dptr[j] = data[src] + pos[src];
      st[j] = state[src];
      if (j >= active) lim[j] = 0;
    }
    Hook hook{&accept, job_ix, base, pos};
    dense_block_avx2(
        table, ncols, cols, lim, st, dptr, chunk,
        [](void* u, std::size_t lane, std::uint32_t s, std::size_t i) -> std::uint32_t {
          auto* h = static_cast<Hook*>(u);
          return (*h->fn)(h->job_ix[lane], s, h->base[lane] + h->pos[lane] + i);
        },
        &hook);
    for (std::size_t j = 0; j < active; ++j) {
      state[j] = st[j];
      pos[j] += chunk;
    }

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

}  // namespace mfa::simd
