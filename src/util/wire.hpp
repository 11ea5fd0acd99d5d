// Little-endian byte codec of every on-disk format (AMM blobs, model
// registry, checkpoints, request journal) and of the RPC framing. A
// Writer appends fields to one buffer for a single write_all(), which
// fails loudly when the sink enters an error state (full disk, closed
// pipe) instead of surfacing later as a CRC mismatch. A Cursor reads
// them back bounds-checked: its bool getters return false instead of
// reading past the end; its get_* forms throw CheckError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace ssma::wire {

// Fields and arrays are copied in host byte order, one memcpy each: a
// big-endian port needs a byte-swap path in put() and array().
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the wire codec copies host-order bytes: little-endian only");

/// Appending byte-buffer writer: the encode side of Cursor.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void put_u8(std::uint8_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_f32(float v) { put(v); }
  void put_f64(double v) { put(v); }
  void put_bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  /// u32 length + raw bytes (the RPC string encoding).
  void put_str32(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }
  /// u64 length + raw bytes (journal, registry and checkpoint blobs).
  void put_str64(std::string_view s) {
    put_u64(s.size());
    put_bytes(s.data(), s.size());
  }
  /// `n` elements as one bulk copy, without a length prefix.
  template <class T>
  void put_array(const T* p, std::size_t n) {
    static_assert(std::is_arithmetic_v<T>);
    put_bytes(p, n * sizeof(T));
  }
  /// Overwrites the field at byte offset `at` — a header reserved
  /// before its value was known.
  template <class T>
  void patch(std::size_t at, T v) {
    static_assert(std::is_arithmetic_v<T>);
    SSMA_CHECK(at + sizeof(T) <= buf_.size());
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  std::size_t size() const { return buf_.size(); }
  const std::string& str() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <class T>
  void put(T v) {
    put_bytes(&v, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked reader over a byte span it does not own (the span
/// must outlive the cursor).
class Cursor {
 public:
  explicit Cursor(std::string_view s)
      : p_(s.data()), end_(s.data() + s.size()) {}
  Cursor(const char* p, std::size_t n) : p_(p), end_(p + n) {}

  bool u8(std::uint8_t* v) { return array(v, 1); }
  bool u32(std::uint32_t* v) { return array(v, 1); }
  bool u64(std::uint64_t* v) { return array(v, 1); }
  /// The next `n` bytes, in place.
  bool view(std::uint64_t n, std::string_view* v) {
    if (remaining() < n) return false;
    *v = std::string_view(p_, static_cast<std::size_t>(n));
    p_ += n;
    return true;
  }
  /// u32 length + raw bytes (the RPC string encoding).
  bool str(std::string* v) {
    std::uint32_t n = 0;
    std::string_view s;
    if (!u32(&n) || !view(n, &s)) return false;
    v->assign(s.data(), s.size());
    return true;
  }
  /// u64 length + raw bytes.
  bool str64(std::string* v) {
    std::uint64_t n = 0;
    std::string_view s;
    if (!u64(&n) || !view(n, &s)) return false;
    v->assign(s.data(), s.size());
    return true;
  }
  /// `n` elements into `out`, one bulk copy.
  template <class T>
  bool array(T* out, std::uint64_t n) {
    static_assert(std::is_arithmetic_v<T>);
    if (remaining() / sizeof(T) < n) return false;
    if (n > 0) std::memcpy(out, p_, n * sizeof(T));
    p_ += n * sizeof(T);
    return true;
  }
  /// Same into *v. The count is checked against the bytes left before
  /// *v is sized, so a corrupt count fails here instead of allocating.
  template <class T>
  bool array(std::vector<T>* v, std::uint64_t n) {
    if (remaining() / sizeof(T) < n) return false;
    v->resize(static_cast<std::size_t>(n));
    return array(v->data(), v->size());
  }

  // Throwing forms for loaders: underflow is a CheckError.
  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  float get_f32() { return get<float>(); }
  double get_f64() { return get<double>(); }
  static void need(bool ok) {
    SSMA_CHECK_MSG(ok, "unexpected end of stream");
  }

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool done() const { return p_ == end_; }

 private:
  template <class T>
  T get() {
    T v{};
    need(array(&v, 1));
    return v;
  }

  const char* p_;
  const char* end_;
};

/// Writes `bytes` to `os` in one call and flushes; throws CheckError
/// when the sink stream enters an error state.
inline void write_all(std::ostream& os, std::string_view bytes) {
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  SSMA_CHECK_MSG(os.good(),
                 "wire write failed — sink stream entered an error "
                 "state (full disk? closed socket?)");
}

/// Reads everything left in `in`, 64 KiB per read.
inline std::string read_all(std::istream& in) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string out;
  while (in) {
    const std::size_t have = out.size();
    out.resize(have + kChunk);
    in.read(out.data() + have, static_cast<std::streamsize>(kChunk));
    out.resize(have + static_cast<std::size_t>(in.gcount()));
  }
  return out;
}

}  // namespace ssma::wire
