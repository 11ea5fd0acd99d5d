// Checksummed framing for on-disk blobs. A frame is
//
//   [u64 payload length][u32 CRC-32 of payload][payload bytes]
//
// written little-endian. Readers validate the CRC before handing the
// payload back, so torn writes and bit rot surface as a CheckError at
// load time instead of silently corrupt operator state. The AMM
// operator stream, the serving checkpoints, the request journal and
// the RPC protocol all persist through this frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/wire.hpp"

namespace ssma::maddness {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). `crc` chains
/// incremental updates; pass 0 to start a fresh checksum. Two paths give
/// the same bytes: a PCLMULQDQ carry-less-multiply fold over the largest
/// 16-byte multiple of any buffer >= 64 B (chosen once, from CPUID, on
/// CPUs with PCLMUL + SSE4.1), and slicing-by-8 for the tail, for short
/// buffers, on other CPUs, and everywhere under SSMA_KERNEL=scalar.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);
std::uint32_t crc32(std::string_view s);

namespace detail {
/// The two crc32() paths, callable directly (benchmarks). crc32_fold
/// requires crc32_fold_available().
bool crc32_fold_available();
std::uint32_t crc32_slicing8(const void* data, std::size_t n,
                             std::uint32_t crc);
std::uint32_t crc32_fold(const void* data, std::size_t n, std::uint32_t crc);
}  // namespace detail

/// u64 length + u32 CRC.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Reserves a frame header at the end of `w` and returns its offset;
/// append the payload, then seal it with end_frame. Builds a frame in
/// place, without a separate payload buffer.
std::size_t begin_frame(wire::Writer& w);
/// Fills the header reserved at `start` over everything appended since.
void end_frame(wire::Writer& w, std::size_t start);

/// One frame whose payload `fill(wire::Writer&)` appends in place:
/// a single buffer, CRC'd once, no separate payload copy.
template <class Fill>
std::string build_frame(std::size_t payload_hint, Fill&& fill) {
  wire::Writer w(kFrameHeaderBytes + payload_hint);
  const std::size_t start = begin_frame(w);
  fill(w);
  end_frame(w, start);
  return w.take();
}

/// Appends one length+CRC frame around `payload`.
void write_framed_blob(wire::Writer& w, std::string_view payload);

/// Reads one frame; throws CheckError on truncation or CRC mismatch.
/// The Cursor form returns a view into the cursor's buffer.
std::string_view read_framed_blob(wire::Cursor& c);
std::string read_framed_blob(std::istream& is);

/// Torn-tolerant variant: returns false (leaving *out untouched) on a
/// clean EOF at the frame boundary, on a truncated frame, or on a CRC
/// mismatch — the reader treats everything from the first bad frame on
/// as a torn tail. Never throws on corrupt input.
bool try_read_framed_blob(std::istream& is, std::string* out);

}  // namespace ssma::maddness
