// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) behind every frame
// in framing.hpp. Two paths compute the same checksum:
//   * slicing-by-8 — portable table loop, eight bytes per step;
//   * carry-less-multiply folding (PCLMULQDQ) — four 128-bit lanes fold
//     64 bytes per step, then fold to one lane, fold the remaining
//     16-byte blocks, and Barrett-reduce to 32 bits (Intel, "Fast CRC
//     Computation for Generic Polynomials Using PCLMULQDQ Instruction").
// The fold takes the largest 16-byte multiple of a buffer of >= 64 B;
// slicing-by-8 finishes the tail, handles short buffers, and is the
// whole CRC on CPUs without PCLMUL + SSE4.1 or under SSMA_KERNEL=scalar.
// The fold carries a function-level target attribute, so this TU needs
// no -m flag and the fold is always compiled in on x86.
#include <cstring>

#include "maddness/framing.hpp"
#include "maddness/lut_kernel.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define SSMA_CRC_FOLD 1
#include <immintrin.h>
#endif

namespace ssma::maddness {

namespace {

/// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table, and
/// t[k][b] advances t[k-1][b] by one more zero byte, so eight table
/// lookups retire eight input bytes per step.
struct CrcTables {
  std::uint32_t t[8][256];
};

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  return tables;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Advances the raw (already inverted) CRC state over n bytes.
std::uint32_t slicing8(const std::uint8_t* p, std::size_t n,
                       std::uint32_t crc) {
  const auto& t = kCrc.t;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo, hi;  // little-endian host (util/wire.hpp)
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if defined(SSMA_CRC_FOLD)

// Bit-reflected fold constants, x^k mod P(x) for the fold distances
// (k1..k5 in Intel's paper), and the Barrett pair: P(x) itself (33 bits,
// reflected) and mu = floor(x^64 / P(x)), reflected.
constexpr long long kFold512Lo = 0x154442bd4;  // x^(4*128+32) mod P
constexpr long long kFold512Hi = 0x1c6e41596;  // x^(4*128-32) mod P
constexpr long long kFold128Lo = 0x1751997d0;  // x^(128+32) mod P
constexpr long long kFold128Hi = 0x0ccaa009e;  // x^(128-32) mod P
constexpr long long kFold64 = 0x163cd6124;     // x^64 mod P
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// acc * x^(distance) folded into the next block: the low qword times
/// k.lo plus the high qword times k.hi.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i acc,
                                                            __m128i k,
                                                            __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advances the raw CRC state over n bytes; n >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  // Four independent lanes, 64 bytes per step.
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }

  // Fold the four lanes into one, then the remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = fold(x0, k128, x1);
  x = fold(x, k128, x2);
  x = fold(x, k128, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k128, load(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k128, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                           _mm_set_epi64x(0, kFold64), 0x00));

  // Barrett reduction: q = (x mod x^32) * mu, then x ^= (q mod x^32) * P.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#endif  // SSMA_CRC_FOLD

/// Chosen once: the fold when the CPU has it, unless SSMA_KERNEL=scalar
/// pins every kernel to its portable path.
bool fold_selected() {
  static const bool on =
      detail::crc32_fold_available() &&
      detail::clamp_tier_by_env(KernelTier::kAvx2) != KernelTier::kScalar;
  return on;
}

}  // namespace

namespace detail {

bool crc32_fold_available() {
#if defined(SSMA_CRC_FOLD)
  return __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_slicing8(const void* data, std::size_t n,
                             std::uint32_t crc) {
  return ~slicing8(static_cast<const std::uint8_t*>(data), n, ~crc);
}

std::uint32_t crc32_fold(const void* data, std::size_t n, std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
#if defined(SSMA_CRC_FOLD)
  // The largest 16-byte multiple of a >= 64 B buffer folds;
  // slicing-by-8 finishes the tail.
  if (n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    crc = fold_blocks(p, bulk, crc);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~slicing8(p, n, crc);
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  return fold_selected() ? detail::crc32_fold(data, n, crc)
                         : detail::crc32_slicing8(data, n, crc);
}

std::uint32_t crc32(std::string_view s) { return crc32(s.data(), s.size()); }

}  // namespace ssma::maddness
