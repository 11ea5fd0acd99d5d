// SSSE3 tier of the batch encoder: 16 rows per iteration. All 15 node
// thresholds of a codebook live in one XMM register; each level is
// resolved with three instructions per 16 rows:
//   * pshufb gathers every row's node threshold (flat index =
//     (1<<l)-1 + node, always < 15 so the shuffle high bit is clear);
//   * the unsigned compare x >= t has no epu8 primitive, so it is
//     max_epu8(x, t) == x (equality included — the hardware's >= rail);
//   * the 0xFF/0x00 mask folds into the index with
//     idx = (idx + idx) - mask, i.e. idx = 2*idx + (x >= t).
// A partial last 16-row block runs the same instructions; its lanes past
// the batch read staging padding (or, windowed, the batch's last row)
// and are dropped at the store.
#include "maddness/encoder_kernel.hpp"
#include "maddness/encoder_kernel_simd.hpp"
#include "util/check.hpp"

#if defined(__SSSE3__)
#include <immintrin.h>
#endif

namespace ssma::maddness::detail {

#if defined(__SSSE3__)

namespace {

constexpr std::size_t kRowBlock = 16;

/// The branchless 4-level tournament over 16 rows' split bytes x[0..3]
/// (level order) against the codebook's threshold block T; returns each
/// row's leaf index.
inline __m128i tournament(const __m128i x[4], __m128i T) {
  // Level 0: one shared threshold, broadcast.
  const __m128i t0 = _mm_shuffle_epi8(T, _mm_setzero_si128());
  __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(x[0], t0), x[0]);
  __m128i idx = _mm_sub_epi8(_mm_setzero_si128(), ge);
  // Levels 1-3: per-row threshold gather from the packed block.
  __m128i t = _mm_shuffle_epi8(T, _mm_add_epi8(idx, _mm_set1_epi8(1)));
  ge = _mm_cmpeq_epi8(_mm_max_epu8(x[1], t), x[1]);
  idx = _mm_sub_epi8(_mm_add_epi8(idx, idx), ge);
  t = _mm_shuffle_epi8(T, _mm_add_epi8(idx, _mm_set1_epi8(3)));
  ge = _mm_cmpeq_epi8(_mm_max_epu8(x[2], t), x[2]);
  idx = _mm_sub_epi8(_mm_add_epi8(idx, idx), ge);
  t = _mm_shuffle_epi8(T, _mm_add_epi8(idx, _mm_set1_epi8(7)));
  ge = _mm_cmpeq_epi8(_mm_max_epu8(x[3], t), x[3]);
  return _mm_sub_epi8(_mm_add_epi8(idx, idx), ge);
}

}  // namespace

bool encoder_ssse3_compiled_in() { return true; }

void encode_codebook_ssse3(const std::uint8_t* stage, std::size_t stride,
                           std::size_t rows, const std::uint8_t* thr,
                           std::uint8_t* codes) {
  const __m128i T =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr));
  for (std::size_t n = 0; n < rows; n += kRowBlock) {
    __m128i x[4];
    for (std::size_t l = 0; l < 4; ++l)
      x[l] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(stage + l * stride + n));
    store_codes(codes, n, rows, tournament(x, T));
  }
}

void encode_codebook_windowed_ssse3(const std::uint8_t* src,
                                    std::size_t row_stride,
                                    std::size_t rows,
                                    const std::uint8_t* pick,
                                    const std::uint8_t* thr,
                                    std::uint8_t* codes) {
  const __m128i pickv =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pick));
  const __m128i T =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(thr));
  // Identical tournament to the staged path; only the batch's partial
  // last block pays for the row clamp.
  std::size_t n = 0;
  __m128i x[4];
  for (; n + kRowBlock <= rows; n += kRowBlock) {
    gather_window_16<false>(src, row_stride, n, rows - 1, pickv, x);
    store_codes(codes, n, rows, tournament(x, T));
  }
  if (n == rows) return;
  gather_window_16<true>(src, row_stride, n, rows - 1, pickv, x);
  store_codes(codes, n, rows, tournament(x, T));
}

#else  // !defined(__SSSE3__)

bool encoder_ssse3_compiled_in() { return false; }

void encode_codebook_ssse3(const std::uint8_t* stage, std::size_t stride,
                           std::size_t rows, const std::uint8_t* thr,
                           std::uint8_t* codes) {
  // Unreachable: the dispatcher never selects a tier whose
  // *_compiled_in() probe is false. Fall back defensively anyway.
  encode_codebook_scalar(stage, stride, rows, thr, codes);
}

void encode_codebook_windowed_ssse3(const std::uint8_t*, std::size_t,
                                    std::size_t, const std::uint8_t*,
                                    const std::uint8_t*, std::uint8_t*) {
  SSMA_CHECK_MSG(false, "windowed encode needs a compiled-in SIMD tier");
}

#endif

}  // namespace ssma::maddness::detail
