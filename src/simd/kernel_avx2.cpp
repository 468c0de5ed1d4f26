// The single -mavx2 translation unit (see src/simd/CMakeLists.txt). Nothing
// here runs unless simd::level() reported kAvx2 at runtime, so building with
// AVX2 codegen enabled for this file does not raise the binary's baseline
// ISA requirement.
#include "simd/kernel.h"

#ifdef MFA_SIMD_X86

#include <immintrin.h>

namespace mfa::simd {

namespace {

/// Surviving bucket masks of the 32 candidate starts at `p`: the AND over
/// the M mask positions of both nibble lookups of byte p + i + j.
template <int M>
inline __m256i teddy_block(const __m256i* lo_tab, const __m256i* hi_tab,
                           const std::uint8_t* p) {
  const __m256i nib = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_set1_epi8(static_cast<char>(0xff));
  for (int j = 0; j < M; ++j) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + j));
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    acc = _mm256_and_si256(acc, _mm256_and_si256(_mm256_shuffle_epi8(lo_tab[j], lo),
                                                 _mm256_shuffle_epi8(hi_tab[j], hi)));
  }
  return acc;
}

/// teddy_scan_avx2 for M mask positions: two independent 32-byte blocks
/// per iteration while 64 bytes fit, then single blocks.
template <int M>
bool teddy_scan(const TeddyTables& t, const std::uint8_t* data, std::size_t len,
                std::size_t* pos, std::uint8_t* bucket) {
  __m256i lo_tab[M];
  __m256i hi_tab[M];
  for (int j = 0; j < M; ++j) {
    lo_tab[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo[j])));
    hi_tab[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi[j])));
  }
  const __m256i zero = _mm256_setzero_si256();
  // First candidate in the block at `p` (there is one): report it.
  const auto report = [&](std::size_t p, __m256i acc) {
    const auto zmask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(acc, zero)));
    const int l = __builtin_ctz(~zmask);
    alignas(32) std::uint8_t res[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(res), acc);
    *bucket = res[l];
    *pos = p + static_cast<std::size_t>(l);
    return true;
  };
  constexpr std::size_t kTail = M - 1;  // readable bytes past a block
  std::size_t p = *pos;
  while (p + 64 + kTail <= len) {
    const __m256i a0 = teddy_block<M>(lo_tab, hi_tab, data + p);
    const __m256i a1 = teddy_block<M>(lo_tab, hi_tab, data + p + 32);
    if (!_mm256_testz_si256(_mm256_or_si256(a0, a1), _mm256_or_si256(a0, a1))) {
      if (!_mm256_testz_si256(a0, a0)) return report(p, a0);
      return report(p + 32, a1);
    }
    p += 64;
  }
  while (p + 32 + kTail <= len) {
    const __m256i a = teddy_block<M>(lo_tab, hi_tab, data + p);
    if (!_mm256_testz_si256(a, a)) return report(p, a);
    p += 32;
  }
  *pos = p;
  return false;
}

}  // namespace

bool teddy_scan_avx2(const TeddyTables& t, const std::uint8_t* data,
                     std::size_t len, std::size_t* pos, std::uint8_t* bucket) {
  switch (t.positions) {
    case 1:
      return teddy_scan<1>(t, data, len, pos, bucket);
    case 2:
      return teddy_scan<2>(t, data, len, pos, bucket);
    default:
      return teddy_scan<3>(t, data, len, pos, bucket);
  }
}

}  // namespace mfa::simd

#else  // !MFA_SIMD_X86

#include <cstdlib>

namespace mfa::simd {

// Non-x86 stubs: dispatch never selects kAvx2 off x86, so reaching these is
// a dispatch bug — fail loudly rather than corrupt a scan.
bool teddy_scan_avx2(const TeddyTables&, const std::uint8_t*, std::size_t,
                     std::size_t*, std::uint8_t*) {
  std::abort();
}

}  // namespace mfa::simd

#endif
