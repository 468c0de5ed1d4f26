// The single -mavx2 translation unit (see src/simd/CMakeLists.txt). Nothing
// here runs unless simd::level() reported kAvx2 at runtime, so building with
// AVX2 codegen enabled for this file does not raise the binary's baseline
// ISA requirement.
#include "simd/kernel.h"

#ifdef MFA_SIMD_X86

#include <immintrin.h>

namespace mfa::simd {

void teddy_block_avx2(const TeddyTables& t, const std::uint8_t* data,
                      std::uint8_t res[32]) {
  const __m256i nib = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_set1_epi8(static_cast<char>(0xff));
  for (int j = 0; j < t.positions; ++j) {
    const __m256i lo_tab = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo[j])));
    const __m256i hi_tab = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi[j])));
    // Position j of a candidate starting at lane i is byte data[i + j]:
    // reloading at the offset instead of shifting lanes keeps the kernel
    // free of cross-lane shuffles (the caller guarantees readability).
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + j));
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    acc = _mm256_and_si256(acc, _mm256_and_si256(_mm256_shuffle_epi8(lo_tab, lo),
                                                 _mm256_shuffle_epi8(hi_tab, hi)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(res), acc);
}

bool teddy_scan_avx2(const TeddyTables& t, const std::uint8_t* data,
                     std::size_t len, std::size_t* pos, std::uint8_t* bucket) {
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i lo_tab[3];
  __m256i hi_tab[3];
  for (int j = 0; j < t.positions; ++j) {
    lo_tab[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo[j])));
    hi_tab[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi[j])));
  }
  const auto m = static_cast<std::size_t>(t.positions);
  std::size_t p = *pos;
  while (p + 32 + m - 1 <= len) {
    __m256i acc = _mm256_set1_epi8(static_cast<char>(0xff));
    for (int j = 0; j < t.positions; ++j) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + p + j));
      const __m256i lo = _mm256_and_si256(v, nib);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
      acc = _mm256_and_si256(acc,
                             _mm256_and_si256(_mm256_shuffle_epi8(lo_tab[j], lo),
                                              _mm256_shuffle_epi8(hi_tab[j], hi)));
    }
    const auto zmask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(acc, zero)));
    if (zmask != 0xffffffffu) {
      const int l = __builtin_ctz(~zmask);
      alignas(32) std::uint8_t res[32];
      _mm256_store_si256(reinterpret_cast<__m256i*>(res), acc);
      *bucket = res[l];
      *pos = p + static_cast<std::size_t>(l);
      return true;
    }
    p += 32;
  }
  *pos = p;
  return false;
}

void dense_block_avx2(const std::uint32_t* table, const std::uint8_t* cols,
                      std::uint32_t* limits, std::uint32_t* states,
                      const std::uint8_t* const* data, std::size_t chunk,
                      AcceptHook hook, void* uctx) {
  __m256i st = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states));
  // The signed gather index and signed limit compare are exact here: row
  // offsets and limits stay below util::kMaxRowOffsets (2^30), which
  // build_dfa() and the loaders enforce whatever max_states is set to.
  __m256i vlim = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(limits));
  const std::uint8_t* d0 = data[0];
  const std::uint8_t* d1 = data[1];
  const std::uint8_t* d2 = data[2];
  const std::uint8_t* d3 = data[3];
  const std::uint8_t* d4 = data[4];
  const std::uint8_t* d5 = data[5];
  const std::uint8_t* d6 = data[6];
  const std::uint8_t* d7 = data[7];
  for (std::size_t i = 0; i < chunk; ++i) {
    const __m256i vcol = _mm256_setr_epi32(cols[d0[i]], cols[d1[i]], cols[d2[i]],
                                           cols[d3[i]], cols[d4[i]], cols[d5[i]],
                                           cols[d6[i]], cols[d7[i]]);
    st = _mm256_i32gather_epi32(reinterpret_cast<const int*>(table),
                                _mm256_add_epi32(st, vcol), 4);
    const int am =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vlim, st)));
    if (am != 0) [[unlikely]] {
      alignas(32) std::uint32_t tmp[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), st);
      for (int l = 0; l < 8; ++l)
        if ((am >> l) & 1) limits[l] = hook(uctx, static_cast<std::size_t>(l), tmp[l], i);
      vlim = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(limits));
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states), st);
}

}  // namespace mfa::simd

#else  // !MFA_SIMD_X86

#include <cstdlib>

namespace mfa::simd {

// Non-x86 stubs: dispatch never selects kAvx2 off x86, so reaching these is
// a dispatch bug — fail loudly rather than corrupt a scan.
void teddy_block_avx2(const TeddyTables&, const std::uint8_t*, std::uint8_t[32]) {
  std::abort();
}
bool teddy_scan_avx2(const TeddyTables&, const std::uint8_t*, std::size_t,
                     std::size_t*, std::uint8_t*) {
  std::abort();
}
void dense_block_avx2(const std::uint32_t*, const std::uint8_t*, std::uint32_t*,
                      std::uint32_t*, const std::uint8_t* const*, std::size_t,
                      AcceptHook, void*) {
  std::abort();
}

}  // namespace mfa::simd

#endif
