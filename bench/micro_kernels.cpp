// Google-benchmark microbenchmarks of the software kernels: exact GEMM vs
// MADDNESS approximate matmul (encode + lookup-accumulate), hash-tree
// encoding, and the event-driven simulator's token rate — the software
// cost picture that motivates hardware acceleration in the first place
// (GPUs lack PQ/lookup primitives; Sec. I).
#include <benchmark/benchmark.h>

#include "maddness/amm.hpp"
#include "maddness/framing.hpp"
#include "sim/macro.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

using namespace ssma;

namespace {

Matrix random_activations(Rng& rng, std::size_t n, std::size_t d) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  return x;
}

Matrix random_weights(Rng& rng, std::size_t d, std::size_t o) {
  Matrix w(d, o);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.05));
  return w;
}

void BM_ExactGemm(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(1);
  const Matrix x = random_activations(rng, n, 144);  // 16ch x 9
  const Matrix w = random_weights(rng, 144, 16);
  Matrix y;
  for (auto _ : state) {
    gemm(x, w, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 144 * 16 * 2);
}
BENCHMARK(BM_ExactGemm)->Arg(256)->Arg(1024);

void BM_MaddnessApply(benchmark::State& state) {
  // Full decode through the packed, tier-dispatched kernel (encode +
  // lookup-accumulate). Compare against BM_MaddnessApplyReference for
  // the cost of the pre-rewrite naive accumulation.
  const std::size_t n = state.range(0);
  Rng rng(2);
  maddness::Config cfg;
  cfg.ncodebooks = 16;
  const Matrix x = random_activations(rng, n, 144);
  const Matrix w = random_weights(rng, 144, 16);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  for (auto _ : state) {
    auto y = amm.apply_int16(q);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 144 * 16 * 2);
}
BENCHMARK(BM_MaddnessApply)->Arg(256)->Arg(1024);

void BM_MaddnessApplyReference(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(2);
  maddness::Config cfg;
  cfg.ncodebooks = 16;
  const Matrix x = random_activations(rng, n, 144);
  const Matrix w = random_weights(rng, 144, 16);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  for (auto _ : state) {
    auto y = amm.apply_int16_reference(q);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 144 * 16 * 2);
}
BENCHMARK(BM_MaddnessApplyReference)->Arg(256)->Arg(1024);

void BM_PackedLutKernel(benchmark::State& state) {
  // Accumulation only, on a prebuilt encode cache, at a fixed dispatch
  // tier (0 = scalar, 1 = ssse3, 2 = avx2); unavailable tiers skip.
  const auto tier = static_cast<maddness::KernelTier>(state.range(0));
  if (!maddness::kernel_tier_available(tier)) {
    state.SkipWithError("tier not available on this build/CPU");
    return;
  }
  const std::size_t n = 1024;
  Rng rng(5);
  maddness::Config cfg;
  cfg.ncodebooks = 32;
  const Matrix x = random_activations(rng, n, 32 * 9);
  const Matrix w = random_weights(rng, 32 * 9, 128);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  const maddness::EncodedBatch enc = amm.encode_batch(q);
  for (auto _ : state) {
    auto y = maddness::apply_lut_packed(amm.packed_lut(), enc, tier);
    benchmark::DoNotOptimize(y.data());
  }
  // One gathered LUT byte per (row, codebook, output).
  state.SetBytesProcessed(state.iterations() * n * 32 * 128);
  state.SetLabel(maddness::kernel_tier_name(tier));
}
BENCHMARK(BM_PackedLutKernel)->Arg(0)->Arg(1)->Arg(2);

void BM_Crc32(benchmark::State& state) {
  // One crc32 path (0 = slicing-by-8, 1 = PCLMULQDQ fold) over an
  // odd-aligned buffer: a short frame, a 16-row response, a 16-row
  // journal record and a checkpoint-sized blob.
  const bool fold = state.range(0) == 1;
  if (fold && !maddness::detail::crc32_fold_available()) {
    state.SkipWithError("PCLMUL + SSE4.1 not available on this CPU");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  std::vector<std::uint8_t> buf(n + 1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  const std::uint8_t* p = buf.data() + 1;
  for (auto _ : state) {
    const std::uint32_t crc = fold ? maddness::detail::crc32_fold(p, n, 0)
                                   : maddness::detail::crc32_slicing8(p, n, 0);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel(fold ? "fold" : "slicing8");
}
BENCHMARK(BM_Crc32)->ArgsProduct({{0, 1}, {64, 2048, 4691, 1 << 20}});

void BM_TreeEncode(benchmark::State& state) {
  // Per-row reference walk — the scalar baseline BM_BatchEncoder is
  // measured against (and the bit-exactness oracle for all its tiers).
  Rng rng(3);
  maddness::HashTree tree;
  for (int l = 0; l < 4; ++l) tree.set_split_dim(l, rng.next_int(0, 8));
  for (int l = 0; l < 4; ++l)
    for (int nd = 0; nd < (1 << l); ++nd)
      tree.set_threshold(l, nd,
                         static_cast<std::uint8_t>(rng.next_int(1, 254)));
  std::vector<std::uint8_t> data(9 * 4096);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.next_int(0, 255));
  for (auto _ : state) {
    int acc = 0;
    for (std::size_t i = 0; i < 4096; ++i)
      acc += tree.encode(data.data() + i * 9);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TreeEncode);

void BM_BatchEncoder(benchmark::State& state) {
  // The vectorized batch encoder at a fixed dispatch tier (0 = scalar,
  // 1 = ssse3, 2 = avx2); unavailable tiers skip. Scratch is reused
  // across iterations, as the serve worker shards do.
  const auto tier = static_cast<maddness::KernelTier>(state.range(0));
  if (!maddness::encoder_tier_available(tier)) {
    state.SkipWithError("tier not available on this build/CPU");
    return;
  }
  const std::size_t n = 1024;
  Rng rng(6);
  maddness::Config cfg;
  cfg.ncodebooks = 32;
  const Matrix x = random_activations(rng, n, 32 * 9);
  const Matrix w = random_weights(rng, 32 * 9, 16);
  const auto amm = maddness::Amm::train(cfg, x, w);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  maddness::EncodeScratch scratch;
  maddness::EncodedBatch enc;
  for (auto _ : state) {
    maddness::encode_batch_packed(amm.encoder_bank(), q, tier, scratch,
                                  enc);
    benchmark::DoNotOptimize(enc.codes.data());
  }
  // One leaf code per (row, codebook).
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 32);
  state.SetLabel(maddness::kernel_tier_name(tier));
}
BENCHMARK(BM_BatchEncoder)->Arg(0)->Arg(1)->Arg(2);

void BM_EventSimTokens(benchmark::State& state) {
  const int ndec = static_cast<int>(state.range(0));
  const int ns = 4;
  Rng rng(4);
  std::vector<maddness::HashTree> trees(ns);
  for (auto& t : trees) {
    for (int l = 0; l < 4; ++l) t.set_split_dim(l, rng.next_int(0, 8));
    for (int l = 0; l < 4; ++l)
      for (int nd = 0; nd < (1 << l); ++nd)
        t.set_threshold(l, nd,
                        static_cast<std::uint8_t>(rng.next_int(1, 254)));
  }
  std::vector<std::vector<std::array<std::int8_t, 16>>> luts(
      ns, std::vector<std::array<std::int8_t, 16>>(ndec));
  for (auto& b : luts)
    for (auto& tb : b)
      for (auto& e : tb)
        e = static_cast<std::int8_t>(rng.next_int(-127, 127));
  std::vector<std::vector<sim::Subvec>> inputs(
      16, std::vector<sim::Subvec>(ns));
  for (auto& tok : inputs)
    for (auto& sv : tok)
      for (auto& v : sv) v = static_cast<std::uint8_t>(rng.next_int(0, 255));

  for (auto _ : state) {
    sim::MacroConfig mc;
    mc.ndec = ndec;
    mc.ns = ns;
    sim::Macro macro(mc);
    macro.program(trees, luts, std::vector<std::int16_t>(ndec, 0));
    auto res = macro.run(inputs);
    benchmark::DoNotOptimize(res.outputs.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EventSimTokens)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
