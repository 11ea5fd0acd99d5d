// Unit tests for the utility substrate: RNG determinism and
// distributions, streaming statistics, matrices/GEMM, Cholesky/ridge,
// fixed-point helpers, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/fixed_point.hpp"
#include "util/linalg.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/wire.hpp"

namespace ssma {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(SSMA_CHECK(false), CheckError);
  try {
    SSMA_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(17);
  auto p = r.permutation(50);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng r(31);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double(-5, 5);
    whole.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps to bin 0
  h.add(0.5);
  h.add(9.99);
  h.add(25.0);   // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[9], 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Matrix, GemmMatchesNaive) {
  Rng r(41);
  Matrix a(17, 23), b(23, 9);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(r.next_double(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<float>(r.next_double(-1, 1));
  Matrix c1, c2;
  gemm(a, b, c1);
  gemm_naive(a, b, c2);
  EXPECT_LT(frobenius_diff(c1, c2), 1e-4);
}

TEST(Matrix, GemmBtAndAtMatchNaive) {
  Rng r(43);
  Matrix a(8, 12), b(12, 5);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(r.next_double(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<float>(r.next_double(-1, 1));
  Matrix ref;
  gemm_naive(a, b, ref);

  Matrix c1;
  gemm_bt(a, b.transposed(), c1);
  EXPECT_LT(frobenius_diff(c1, ref), 1e-4);

  Matrix c2;
  gemm_at(a.transposed(), b, c2);
  EXPECT_LT(frobenius_diff(c2, ref), 1e-4);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 3);
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 3), CheckError);
}

TEST(Linalg, CholeskySolvesSpdSystem) {
  // A = L L^T with a known L.
  Matrix a(3, 3);
  const float vals[9] = {4, 2, 2, 2, 5, 3, 2, 3, 6};
  for (int i = 0; i < 9; ++i) a.data()[i] = vals[i];
  Matrix b(3, 1);
  b(0, 0) = 8;
  b(1, 0) = 10;
  b(2, 0) = 11;
  Matrix x = spd_solve(a, b);
  // Verify A x == b.
  for (int i = 0; i < 3; ++i) {
    double acc = 0;
    for (int j = 0; j < 3; ++j) acc += a(i, j) * x(j, 0);
    EXPECT_NEAR(acc, b(i, 0), 1e-3);
  }
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  Matrix c = a;
  EXPECT_FALSE(cholesky_lower(c));
}

TEST(Linalg, RidgeRecoversCoefficients) {
  // y = 2*x0 - 3*x1, no noise, tiny lambda -> near-exact recovery.
  Rng r(47);
  Matrix g(100, 2), y(100, 1);
  for (int i = 0; i < 100; ++i) {
    g(i, 0) = static_cast<float>(r.next_double(-1, 1));
    g(i, 1) = static_cast<float>(r.next_double(-1, 1));
    y(i, 0) = 2.0f * g(i, 0) - 3.0f * g(i, 1);
  }
  Matrix p = ridge_regression(g, y, 1e-6);
  EXPECT_NEAR(p(0, 0), 2.0, 1e-2);
  EXPECT_NEAR(p(1, 0), -3.0, 1e-2);
}

TEST(FixedPoint, SaturateInt8) {
  EXPECT_EQ(saturate_int8(300), 127);
  EXPECT_EQ(saturate_int8(-300), -127);
  EXPECT_EQ(saturate_int8(-300, /*symmetric=*/false), -128);
  EXPECT_EQ(saturate_int8(5), 5);
}

TEST(FixedPoint, RoundHalfAway) {
  EXPECT_EQ(round_half_away(2.5), 3);
  EXPECT_EQ(round_half_away(-2.5), -3);
  EXPECT_EQ(round_half_away(2.4), 2);
  EXPECT_EQ(round_half_away(-2.4), -2);
}

TEST(FixedPoint, AddWrap16) {
  EXPECT_EQ(add_wrap16(32767, 1), -32768);
  EXPECT_EQ(add_wrap16(-32768, -1), 32767);
  EXPECT_EQ(add_wrap16(100, -50), 50);
}

TEST(FixedPoint, Popcount16) {
  EXPECT_EQ(popcount16(0x0000), 0);
  EXPECT_EQ(popcount16(0xFFFF), 16);
  EXPECT_EQ(popcount16(0xA5A5), 8);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.2345, 2)});
  t.add_row({"b", TextTable::pct(0.5)});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), CheckError);
}

// Sink that accepts `budget` bytes, then reports failure — the
// full-disk / closed-socket shape a wire writer must not paper over.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::size_t budget) : budget_(budget) {}
  std::size_t written() const { return written_; }

 protected:
  int_type overflow(int_type ch) override {
    if (written_ >= budget_) return traits_type::eof();
    ++written_;
    return ch;
  }

 private:
  std::size_t budget_;
  std::size_t written_ = 0;
};

// Regression: wire writes used to swallow failures — a full disk or
// closed socket only surfaced as a CRC mismatch when the blob was read
// back, far from the fault. The single write of a Writer's buffer must
// throw at the write site.
TEST(Wire, PutFailsLoudlyWhenSinkRejectsBytes) {
  wire::Writer w32;
  w32.put_u32(0xDEADBEEFu);
  FailingStreambuf sink(/*budget=*/2);  // dies mid-u32
  std::ostream os(&sink);
  EXPECT_THROW(wire::write_all(os, w32.str()), CheckError);
  EXPECT_EQ(sink.written(), 2u);  // failed at the third byte, loudly

  wire::Writer w64;
  w64.put_u64(1);
  FailingStreambuf sink64(/*budget=*/5);  // dies mid-u64
  std::ostream os64(&sink64);
  EXPECT_THROW(wire::write_all(os64, w64.str()), CheckError);

  wire::Writer w8;
  w8.put_u8(7);
  FailingStreambuf dead(/*budget=*/0);  // first byte already fails
  std::ostream osd(&dead);
  EXPECT_THROW(wire::write_all(osd, w8.str()), CheckError);

  FailingStreambuf roomy(/*budget=*/8);
  std::ostream ok(&roomy);
  wire::write_all(ok, w64.str());  // fits: no throw
  EXPECT_EQ(roomy.written(), 8u);
}

TEST(Wire, PutGetRoundTripStillWorks) {
  wire::Writer w;
  w.put_u8(0xAB);
  w.put_u32(0x01020304u);
  w.put_u64(0x0102030405060708ull);
  w.put_f32(1.5f);
  w.put_f64(-2.25);
  // Explicit little-endian layout, independent of the host.
  EXPECT_EQ(w.str().substr(1, 4), std::string("\x04\x03\x02\x01", 4));
  wire::Cursor c(w.str());
  EXPECT_EQ(c.get_u8(), 0xAB);
  EXPECT_EQ(c.get_u32(), 0x01020304u);
  EXPECT_EQ(c.get_u64(), 0x0102030405060708ull);
  EXPECT_EQ(c.get_f32(), 1.5f);
  EXPECT_EQ(c.get_f64(), -2.25);
  EXPECT_TRUE(c.done());
  EXPECT_THROW(c.get_u8(), CheckError);  // underflow is loud
  std::uint32_t v = 0;
  EXPECT_FALSE(c.u32(&v));  // ...or a plain false on the bool form
}

TEST(Wire, ArraysAndStringsRoundTripAndRefuseOverlongCounts) {
  const std::vector<std::int16_t> outs = {0, -1, 32767, -32768, 258};
  const std::vector<float> table = {0.5f, -3.0f, 1e-7f};
  wire::Writer w;
  w.put_str32("tenant");
  w.put_str64("model");
  w.put_array(outs.data(), outs.size());
  w.put_array(table.data(), table.size());
  // int16 travels as little-endian byte pairs.
  EXPECT_EQ(w.str().substr(4 + 6 + 8 + 5 + 2 * 4, 2),
            std::string("\x02\x01", 2));

  wire::Cursor c(w.str());
  std::string tenant, model;
  std::vector<std::int16_t> outs_back;
  std::vector<float> table_back;
  ASSERT_TRUE(c.str(&tenant));
  ASSERT_TRUE(c.str64(&model));
  ASSERT_TRUE(c.array(&outs_back, outs.size()));
  ASSERT_TRUE(c.array(&table_back, table.size()));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(tenant, "tenant");
  EXPECT_EQ(model, "model");
  EXPECT_EQ(outs_back, outs);
  EXPECT_EQ(table_back, table);

  // A count larger than the bytes left fails before anything is sized,
  // so a hostile length word cannot force a giant allocation.
  wire::Cursor short_c(w.str());
  std::vector<std::int16_t> huge;
  EXPECT_FALSE(short_c.array(&huge, std::uint64_t{1} << 62));
  EXPECT_TRUE(huge.empty());
  EXPECT_EQ(short_c.remaining(), w.size());  // nothing consumed
  std::string s;
  wire::Cursor trunc(std::string_view(w.str()).substr(0, 7));
  EXPECT_FALSE(trunc.str(&s));  // length 6, only 3 bytes follow
}

}  // namespace
}  // namespace ssma
