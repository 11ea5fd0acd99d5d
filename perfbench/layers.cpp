// Per-layer probes of the traced run: single-thread CPU timings of each
// layer's public calls at the shapes the workloads serve, and byte
// counts computed from those shapes. Nothing here is read from inside
// the library; every number is a call the benchmark makes itself.
#include <filesystem>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "engine/execution_engine.hpp"
#include "engine/execution_plan.hpp"
#include "engine/model_registry.hpp"
#include "maddness/framing.hpp"
#include "net/wire_protocol.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Thread CPU seconds per call of `fn`: the call count is doubled until
/// one round takes `min_s`, then the median of `reps` such rounds.
template <class F>
double cpu_per_call(F&& fn, int reps = 5, double min_s = 0.01) {
  std::size_t n = 1;
  for (;;) {
    const double c0 = thread_cpu_s();
    for (std::size_t i = 0; i < n; ++i) fn();
    if (thread_cpu_s() - c0 >= min_s) break;
    n *= 2;
  }
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const double c0 = thread_cpu_s();
    for (std::size_t i = 0; i < n; ++i) fn();
    per_call.push_back((thread_cpu_s() - c0) / static_cast<double>(n));
  }
  return median(per_call);
}

constexpr std::size_t kReqRows = 16;  ///< the tcp_journal request

void probe_kernels(const ssma::maddness::Amm& amm,
                   const ssma::maddness::QuantizedActivations& pool,
                   Layers& L) {
  ssma::maddness::EncodeScratch scratch;
  ssma::maddness::EncodedBatch enc;
  std::vector<std::int16_t> out;
  for (const std::size_t rows : {16, 32, 48, 64, 256}) {
    const auto q = slice_rows(pool, 0, rows);
    const std::string r = ".r" + std::to_string(rows);
    L["maddness.encode_ns_per_row" + r] =
        1e9 * cpu_per_call([&] { amm.encode_batch(q, scratch, enc); }) /
        static_cast<double>(rows);
    amm.encode_batch(q, scratch, enc);
    L["maddness.lut_ns_per_row" + r] =
        1e9 * cpu_per_call([&] { amm.apply_int16(enc, out); }) /
        static_cast<double>(rows);
  }
  // Computed, not measured: per row the kernel reads one int8 LUT entry
  // per (codebook, output) and one code per codebook, and writes nout
  // int16 accumulators.
  const auto ncb = static_cast<double>(amm.cfg().ncodebooks);
  const auto nout = static_cast<double>(amm.lut().nout);
  L["maddness.lut_bytes_per_row"] = ncb * nout + ncb + 2.0 * nout;

  const ssma::engine::ModelRef model =
      ssma::engine::ModelHandle::from_amm("m", 1, amm);
  ssma::engine::EngineOptions eo;
  eo.backend = ssma::engine::Backend::kKernel;
  const auto engine = ssma::engine::make_engine(eo);
  for (const std::size_t rows : {16, 32, 48, 64}) {
    const auto q = slice_rows(pool, 0, rows);
    L["engine.run_batch_us_per_row.r" + std::to_string(rows)] =
        1e6 * cpu_per_call([&] { engine->run_batch(*model, q, out); }) /
        static_cast<double>(rows);
  }
}

void probe_plan(ssma::Rng& rng, Layers& L) {
  const std::vector<ssma::maddness::Amm> stages = train_pipeline(rng);
  const ssma::engine::ModelRef model = ssma::engine::ModelHandle::from_stages(
      "fused", 1, {&stages[0], &stages[1], &stages[2]});
  const auto tile = make_pool(rng, stages[0], 256);
  ssma::engine::PlanScratch scratch;
  std::vector<std::int16_t> out;
  L["engine.plan_us_per_row"] =
      1e6 * cpu_per_call([&] {
        ssma::engine::run_plan(model->plan(), tile, scratch, out, true);
      }) / 256.0;
}

void probe_wire(const ssma::maddness::Amm& amm,
                const ssma::maddness::QuantizedActivations& pool, Layers& L) {
  ssma::net::RpcRequest req;
  req.correlation_id = 7;
  req.model_ref = "m";
  req.rows = kReqRows;
  req.codes.assign(pool.row(0), pool.row(kReqRows));
  ssma::net::RpcResponse resp;
  resp.correlation_id = 7;
  resp.model = "m";
  resp.model_version = 1;
  resp.rows = kReqRows;
  resp.outputs = amm.apply_int16(slice_rows(pool, 0, kReqRows));

  const std::string req_bytes = req.encode();
  const std::string resp_bytes = resp.encode();
  std::string sink;
  L["net.encode_us_per_req"] =
      1e6 * cpu_per_call([&] { sink = req.encode(); });
  L["net.encode_us_per_resp"] =
      1e6 * cpu_per_call([&] { sink = resp.encode(); });

  // Decode = split the frame off the byte stream (CRC check included)
  // and parse its payload, as the server and the client each do.
  const auto decode_us = [&](const std::string& bytes, auto parse) {
    ssma::net::FrameDecoder dec(16u << 20);
    std::string payload;
    return 1e6 * cpu_per_call([&] {
      dec.feed(bytes.data(), bytes.size());
      if (dec.next(&payload) != ssma::net::FrameDecoder::Result::kFrame ||
          !parse(payload))
        throw std::runtime_error("wire probe: frame did not round-trip");
    });
  };
  ssma::net::RpcRequest req_back;
  ssma::net::RpcResponse resp_back;
  L["net.decode_us_per_req"] = decode_us(req_bytes, [&](const std::string& p) {
    return ssma::net::parse_request(p, &req_back);
  });
  L["net.decode_us_per_resp"] =
      decode_us(resp_bytes, [&](const std::string& p) {
        return ssma::net::parse_response(p, &resp_back);
      });

  std::uint32_t crc = 0;
  L["maddness.crc32_ns_per_kb"] =
      1e9 * cpu_per_call([&] {
        crc = ssma::maddness::crc32(req_bytes.data(), req_bytes.size(), crc);
      }) / (static_cast<double>(req_bytes.size()) / 1024.0);
}

void probe_recovery(const ssma::maddness::Amm& amm,
                    const ssma::maddness::QuantizedActivations& pool,
                    const std::string& dir, Layers& L) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::uint8_t> codes(pool.row(0), pool.row(kReqRows));
  {
    ssma::serve::recovery::RequestJournal journal(dir + "/wal");
    std::uint64_t id = 0;
    L["recovery.journal_append_us"] = 1e6 * cpu_per_call([&] {
      journal.append_accepted(++id, "m", 1, kReqRows, codes);
    }, 5, 0.005);
    L["recovery.journal_complete_us"] = 1e6 * cpu_per_call([&] {
      journal.append_completed(++id, 0, 0x12345678u);
    }, 5, 0.005);
  }
  {
    ssma::engine::ModelRegistry registry;
    registry.register_model("m", amm.save_string());
    std::ostringstream blob;
    registry.save(blob);
    ssma::serve::recovery::CheckpointState st;
    st.registry_blob = blob.str();
    ssma::serve::recovery::CheckpointManager ckpts(dir + "/ckpt");
    L["recovery.checkpoint_ms"] =
        1e3 * cpu_per_call([&] { ckpts.write(st); }, 5, 0.02);
  }
  fs::remove_all(dir);
}

}  // namespace

Layers probe_layers(std::uint64_t seed, const std::string& workdir) {
  Layers L;
  ssma::Rng rng(seed);
  const ssma::maddness::Amm amm =
      train_operator(rng, kServeCodebooks, kServeNout);
  const auto pool = make_pool(rng, amm, 256);
  probe_kernels(amm, pool, L);
  probe_wire(amm, pool, L);
  probe_recovery(amm, pool, workdir + "/probe", L);
  probe_plan(rng, L);
  return L;
}

}  // namespace perfbench
