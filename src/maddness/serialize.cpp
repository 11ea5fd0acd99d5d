// Binary serialization of trained Amm operators. Explicit little-endian
// encoding of fixed-width fields makes the format portable across hosts;
// the field payload travels inside a length+CRC frame (framing.hpp) so a
// torn or bit-rotted blob fails loudly at load time — a hard requirement
// for the serving runtime, whose crash recovery reprograms worker shards
// from persisted blobs.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "maddness/amm.hpp"
#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::maddness {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'M', 'A', 'A', 'M', 'M', '2'};

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

void put_matrix(wire::Writer& w, const Matrix& m) {
  w.put_u64(m.rows());
  w.put_u64(m.cols());
  w.put_array(m.data(), m.size());
}

Matrix get_matrix(wire::Cursor& c) {
  const auto rows = static_cast<std::size_t>(c.get_u64());
  const auto cols = static_cast<std::size_t>(c.get_u64());
  SSMA_CHECK_MSG(rows < (1u << 24) && cols < (1u << 24),
                 "implausible matrix dims in AMM stream");
  SSMA_CHECK_MSG(rows * cols <= c.remaining() / sizeof(float),
                 "AMM stream underflow: matrix larger than the payload");
  Matrix m(rows, cols);
  wire::Cursor::need(c.array(m.data(), m.size()));
  return m;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  const auto& t = kCrc.t;
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
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
  return ~crc;
}

std::uint32_t crc32(std::string_view s) { return crc32(s.data(), s.size()); }

std::size_t begin_frame(wire::Writer& w) {
  const std::size_t start = w.size();
  w.put_u64(0);
  w.put_u32(0);
  return start;
}

void end_frame(wire::Writer& w, std::size_t start) {
  const std::size_t body = start + kFrameHeaderBytes;
  SSMA_CHECK(body <= w.size());
  w.patch(start, static_cast<std::uint64_t>(w.size() - body));
  w.patch(start + 8, crc32(w.str().data() + body, w.size() - body));
}

void write_framed_blob(wire::Writer& w, std::string_view payload) {
  w.put_u64(payload.size());
  w.put_u32(crc32(payload));
  w.put_bytes(payload.data(), payload.size());
}

std::string_view read_framed_blob(wire::Cursor& c) {
  std::uint64_t len = 0;
  std::uint32_t want_crc = 0;
  std::string_view payload;
  SSMA_CHECK_MSG(c.u64(&len) && c.u32(&want_crc) && c.view(len, &payload) &&
                     crc32(payload) == want_crc,
                 "truncated or CRC-corrupt framed blob");
  return payload;
}

std::string read_framed_blob(std::istream& is) {
  std::string payload;
  SSMA_CHECK_MSG(try_read_framed_blob(is, &payload),
                 "truncated or CRC-corrupt framed blob");
  return payload;
}

bool try_read_framed_blob(std::istream& is, std::string* out) {
  // A clean EOF before the first length byte is a normal end of a
  // record stream; anything shorter than a whole valid frame is a torn
  // tail.
  char hdr[kFrameHeaderBytes];
  is.read(hdr, sizeof(hdr));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(hdr)))
    return false;
  wire::Cursor h(hdr, sizeof(hdr));
  const std::uint64_t len = h.get_u64();
  const std::uint32_t want_crc = h.get_u32();
  // Grow the payload as its bytes actually arrive, at most one chunk
  // ahead of them: a corrupt length word must fall through as torn,
  // not OOM.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::string payload;
  for (std::uint64_t got = 0; got < len;) {
    const std::uint64_t step = std::min(len - got, kChunk);
    payload.resize(static_cast<std::size_t>(got + step));
    is.read(payload.data() + got, static_cast<std::streamsize>(step));
    if (is.gcount() != static_cast<std::streamsize>(step)) return false;
    got += step;
  }
  if (crc32(payload) != want_crc) return false;
  *out = std::move(payload);
  return true;
}

std::string Amm::save_string() const {
  wire::Writer w(64 + 4 * protos_.p.size() + lut_.q.size() +
                 4 * (lut_.scales.size() + lut_.f.size()));
  w.put_bytes(kMagic, sizeof(kMagic));
  const std::size_t frame = begin_frame(w);

  // Config.
  w.put_u32(static_cast<std::uint32_t>(cfg_.ncodebooks));
  w.put_u32(static_cast<std::uint32_t>(cfg_.subvec_dim));
  w.put_u32(static_cast<std::uint32_t>(cfg_.nlevels));
  w.put_u8(cfg_.proto_opt == PrototypeOpt::kRidgeJoint ? 1 : 0);
  w.put_f64(cfg_.ridge_lambda);
  w.put_u8(cfg_.per_column_lut_scale ? 1 : 0);
  w.put_f64(cfg_.act_clip_percentile);
  w.put_u32(static_cast<std::uint32_t>(cfg_.lut_bits));

  w.put_f32(act_scale_);

  // Trees.
  for (const auto& tree : trees_) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      w.put_u32(static_cast<std::uint32_t>(tree.split_dim(l)));
    for (int n = 0; n < HashTree::kNodes; ++n)
      w.put_u8(tree.threshold_flat(n));
  }

  // Prototypes.
  put_matrix(w, protos_.p);

  // LUT bank.
  w.put_u32(static_cast<std::uint32_t>(lut_.nout));
  w.put_u64(lut_.scales.size());
  w.put_array(lut_.scales.data(), lut_.scales.size());
  w.put_u64(lut_.q.size());
  w.put_array(lut_.q.data(), lut_.q.size());
  w.put_u64(lut_.f.size());
  w.put_array(lut_.f.data(), lut_.f.size());

  end_frame(w, frame);
  return w.take();
}

void Amm::save(std::ostream& os) const { wire::write_all(os, save_string()); }

Amm Amm::load(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  SSMA_CHECK_MSG(is.good() && std::equal(magic, magic + 8, kMagic),
                 "not an SSMA AMM stream");
  const std::string payload = read_framed_blob(is);
  wire::Cursor body(payload);

  Amm amm;
  amm.cfg_.ncodebooks = static_cast<int>(body.get_u32());
  amm.cfg_.subvec_dim = static_cast<int>(body.get_u32());
  amm.cfg_.nlevels = static_cast<int>(body.get_u32());
  amm.cfg_.proto_opt = body.get_u8() ? PrototypeOpt::kRidgeJoint
                                     : PrototypeOpt::kBucketMeans;
  amm.cfg_.ridge_lambda = body.get_f64();
  amm.cfg_.per_column_lut_scale = body.get_u8() != 0;
  amm.cfg_.act_clip_percentile = body.get_f64();
  amm.cfg_.lut_bits = static_cast<int>(body.get_u32());
  amm.cfg_.validate();

  amm.act_scale_ = body.get_f32();
  SSMA_CHECK(amm.act_scale_ > 0.0f);

  amm.trees_.resize(amm.cfg_.ncodebooks);
  for (auto& tree : amm.trees_) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      tree.set_split_dim(l, static_cast<int>(body.get_u32()));
    // Flat threshold order matches save().
    for (int flat = 0; flat < HashTree::kNodes; ++flat) {
      const int level = flat < 1 ? 0 : (flat < 3 ? 1 : (flat < 7 ? 2 : 3));
      const int node = flat - ((1 << level) - 1);
      tree.set_threshold(level, node, body.get_u8());
    }
  }

  amm.protos_.p = get_matrix(body);
  amm.protos_.cfg = amm.cfg_;

  amm.lut_.cfg = amm.cfg_;
  amm.lut_.nout = static_cast<int>(body.get_u32());
  wire::Cursor::need(body.array(&amm.lut_.scales, body.get_u64()));
  wire::Cursor::need(body.array(&amm.lut_.q, body.get_u64()));
  wire::Cursor::need(body.array(&amm.lut_.f, body.get_u64()));

  SSMA_CHECK(amm.lut_.q.size() ==
             static_cast<std::size_t>(amm.cfg_.ncodebooks) *
                 amm.cfg_.nprototypes() * amm.lut_.nout);
  // The wire format stays proto-major / per-tree (layout and SSMAAMM2
  // frame are unchanged by the packed kernels); the accumulation and
  // encoder layouts are derived here, after the CRC-validated payload
  // parsed.
  amm.rebuild_derived();
  return amm;
}

void Amm::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  SSMA_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save(os);
}

Amm Amm::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SSMA_CHECK_MSG(is.is_open(), "cannot open " << path);
  return load(is);
}

Amm Amm::load_string(const std::string& blob) {
  std::istringstream is(blob);
  return load(is);
}

}  // namespace ssma::maddness
