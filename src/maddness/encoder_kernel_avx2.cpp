// AVX2 tier of the batch encoder: the YMM-width sibling of the SSSE3
// tier (see encoder_kernel_ssse3.cpp for the per-level scheme). The
// codebook's 16-byte threshold block is broadcast to both 128-bit lanes,
// so one vpshufb gathers 32 rows' node thresholds per level — vpshufb
// shuffles within each lane, which is exactly right with the operand
// duplicated. 32 rows resolve all four levels in ~12 vector ops; a
// partial last block runs the same ops and stores only its real rows.
#include <algorithm>

#include "maddness/encoder_kernel.hpp"
#include "maddness/encoder_kernel_simd.hpp"
#include "util/check.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ssma::maddness::detail {

#if defined(__AVX2__)

namespace {

constexpr std::size_t kRowBlock = 32;

/// The branchless 4-level tournament over 32 rows' split bytes x[0..3]
/// (level order) against the broadcast threshold block T; returns each
/// row's leaf index.
inline __m256i tournament(const __m256i x[4], __m256i T) {
  const __m256i t0 = _mm256_shuffle_epi8(T, _mm256_setzero_si256());
  __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x[0], t0), x[0]);
  __m256i idx = _mm256_sub_epi8(_mm256_setzero_si256(), ge);
  __m256i t = _mm256_shuffle_epi8(
      T, _mm256_add_epi8(idx, _mm256_set1_epi8(1)));
  ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x[1], t), x[1]);
  idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
  t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, _mm256_set1_epi8(3)));
  ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x[2], t), x[2]);
  idx = _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
  t = _mm256_shuffle_epi8(T, _mm256_add_epi8(idx, _mm256_set1_epi8(7)));
  ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x[3], t), x[3]);
  return _mm256_sub_epi8(_mm256_add_epi8(idx, idx), ge);
}

}  // namespace

bool encoder_avx2_compiled_in() { return true; }

void encode_codebook_avx2(const std::uint8_t* stage, std::size_t stride,
                          std::size_t rows, const std::uint8_t* thr,
                          std::uint8_t* codes) {
  const __m256i T = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr)));
  for (std::size_t n = 0; n < rows; n += kRowBlock) {
    __m256i x[4];
    for (std::size_t l = 0; l < 4; ++l)
      x[l] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(stage + l * stride + n));
    store_codes(codes, n, rows, tournament(x, T));
  }
}

void encode_codebook_windowed_avx2(const std::uint8_t* src,
                                   std::size_t row_stride,
                                   std::size_t rows,
                                   const std::uint8_t* pick,
                                   const std::uint8_t* thr,
                                   std::uint8_t* codes) {
  const __m128i pickv =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pick));
  const __m256i T = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr)));
  // Two 16-row gather groups per block.
  const auto finish = [&](std::size_t n, const __m128i xl[4],
                          const __m128i xh[4]) {
    __m256i x[4];
    for (int l = 0; l < 4; ++l) x[l] = _mm256_set_m128i(xh[l], xl[l]);
    store_codes(codes, n, rows, tournament(x, T));
  };
  std::size_t n = 0;
  __m128i xl[4], xh[4];
  for (; n + kRowBlock <= rows; n += kRowBlock) {
    gather_window_16<false>(src, row_stride, n, rows - 1, pickv, xl);
    gather_window_16<false>(src, row_stride, n + 16, rows - 1, pickv, xh);
    finish(n, xl, xh);
  }
  if (n == rows) return;
  // The partial last block: only a group that runs past the batch pays
  // for the row clamp, and one with no real rows is not gathered.
  if (n + 16 <= rows)
    gather_window_16<false>(src, row_stride, n, rows - 1, pickv, xl);
  else
    gather_window_16<true>(src, row_stride, n, rows - 1, pickv, xl);
  if (n + 16 < rows)
    gather_window_16<true>(src, row_stride, n + 16, rows - 1, pickv, xh);
  else
    std::copy(xl, xl + 4, xh);
  finish(n, xl, xh);
}

#else  // !defined(__AVX2__)

bool encoder_avx2_compiled_in() { return false; }

void encode_codebook_avx2(const std::uint8_t* stage, std::size_t stride,
                          std::size_t rows, const std::uint8_t* thr,
                          std::uint8_t* codes) {
  encode_codebook_scalar(stage, stride, rows, thr, codes);
}

void encode_codebook_windowed_avx2(const std::uint8_t*, std::size_t,
                                   std::size_t, const std::uint8_t*,
                                   const std::uint8_t*, std::uint8_t*) {
  SSMA_CHECK_MSG(false, "windowed encode needs a compiled-in SIMD tier");
}

#endif

}  // namespace ssma::maddness::detail
