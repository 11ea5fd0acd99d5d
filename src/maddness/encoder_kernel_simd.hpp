// Block helpers shared by the SSSE3 and AVX2 encoder tiers. Each SIMD
// TU includes this under its own -m flags; the anonymous namespace gives
// every TU its own copy, so the AVX2-compiled instance can never be
// linked into the SSSE3 path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "maddness/lut_kernel.hpp"

#if defined(__SSSE3__)
#include <immintrin.h>
#endif

namespace ssma::maddness::detail {
namespace {

/// Stores one block's leaf codes (one byte per vector lane) for rows
/// [n, n + sizeof(Vec)), dropping the lanes at or past `rows`.
template <class Vec>
inline void store_codes(std::uint8_t* codes, std::size_t n,
                        std::size_t rows, const Vec& idx) {
  if (n + sizeof(Vec) <= rows) {
    std::memcpy(codes + n, &idx, sizeof(Vec));
  } else {
    std::uint8_t lanes[sizeof(Vec)];
    std::memcpy(lanes, &idx, sizeof(Vec));
    copy_short<sizeof(Vec)>(codes + n, lanes, rows - n);
  }
}

#if defined(__SSSE3__)

/// Windowed gather (see EncoderBank::windowed): loads and transposes
/// the 16-row group [n, n+16) into the four per-level row vectors.
/// kClamp (only for a group that runs past the batch) reads rows past
/// `last` as row `last`.
template <bool kClamp>
inline void gather_window_16(const std::uint8_t* src,
                             std::size_t row_stride, std::size_t n,
                             std::size_t last, __m128i pickv, __m128i x[4]) {
  // After the per-row pick, a 4-row group register holds
  // [r0: d0..d3 | r1 | r2 | r3]; this shuffle regroups it level-major:
  // [d0: r0..r3 | d1 | d2 | d3].
  const __m128i relay = _mm_set_epi8(15, 11, 7, 3, 14, 10, 6, 2, 13, 9, 5,
                                     1, 12, 8, 4, 0);
  // One 16-byte window load + one pshufb per row picks the 4 split
  // bytes; three unpacks pack 4 rows into one register.
  const auto row = [&](std::size_t i) {
    const std::size_t r = kClamp ? std::min(n + i, last) : n + i;
    return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                src + r * row_stride)),
                            pickv);
  };
  const auto rows4 = [&](std::size_t i) {
    return _mm_shuffle_epi8(
        _mm_unpacklo_epi64(_mm_unpacklo_epi32(row(i), row(i + 1)),
                           _mm_unpacklo_epi32(row(i + 2), row(i + 3))),
        relay);
  };
  // A clamped group skips the loads of any 4 rows wholly past `last`.
  __m128i g[4] = {rows4(0)};
  for (std::size_t b = 1; b < 4; ++b)
    g[b] = kClamp && n + 4 * b > last ? g[b - 1] : rows4(4 * b);
  // 4x4 dword transpose across the groups -> per-level row vectors.
  const __m128i a0 = _mm_unpacklo_epi32(g[0], g[1]);
  const __m128i a1 = _mm_unpackhi_epi32(g[0], g[1]);
  const __m128i a2 = _mm_unpacklo_epi32(g[2], g[3]);
  const __m128i a3 = _mm_unpackhi_epi32(g[2], g[3]);
  x[0] = _mm_unpacklo_epi64(a0, a2);
  x[1] = _mm_unpackhi_epi64(a0, a2);
  x[2] = _mm_unpacklo_epi64(a1, a3);
  x[3] = _mm_unpackhi_epi64(a1, a3);
}

#endif  // defined(__SSSE3__)

}  // namespace
}  // namespace ssma::maddness::detail
