// The four workloads. Each one sets up `spec.setups` times (timing each
// set-up), warms up, then runs a closed loop for `spec.seconds` through
// one public entry point and checks every output bit-exact against a
// reference computed at set-up:
//
//   tcp_journal    net::NetClient -> NetServer -> InferenceServer + WAL
//   serve_ragged   serve::InferenceServer::submit, ragged request sizes
//   offline_fused  engine::run_plan(fused) on a 3-stage pipeline
//   macro_sim      core::Accelerator::run on the event-driven macro
#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"
#include "core/accelerator.hpp"
#include "engine/execution_plan.hpp"
#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "net/server.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ssma::maddness::Amm;
using ssma::maddness::QuantizedActivations;

/// A timed stretch of a loop, cut into kSegments equal segments. The
/// loops poll running() once per request; at each segment end it
/// records the segment's process CPU per correct row and latency
/// percentiles into the outcome and drops the segment's samples, so a
/// run reports medians over segments (a burst of host interference
/// moves one segment, not the run's figure) and the sample buffer stays
/// one segment long whatever the throughput. Without an outcome
/// (warm-up) it only keeps time.
class Phase {
 public:
  static constexpr int kSegments = 20;

  Phase(double seconds, Outcome* o)
      : seconds_(seconds), next_mark_(seconds / kSegments), o_(o) {
    h0_ = h_mark_ = HostTicks::now();
    cpu0_ = cpu_mark_ = process_cpu_s();
    thr0_ = thread_cpu_s();
    if (o_) {
      rows_mark_ = o_->rows_ok;
      o_->latency_ms.clear();
    }
    t0_ = WallClock::now();
  }

  bool recording() const { return o_ != nullptr; }

  bool running() {
    const double t = seconds_since(t0_);
    if (o_ && t >= next_mark_) close_segment();
    return t < seconds_;
  }

  /// Whole-phase readings, drain included; the drain's latency samples
  /// belong to no segment and are dropped.
  void stop() const {
    o_->latency_ms.clear();
    o_->wall_s = seconds_since(t0_);
    o_->cpu_s = process_cpu_s() - cpu0_;
    o_->client_cpu_s = thread_cpu_s() - thr0_;
    o_->steal_frac = steal_frac(h0_, HostTicks::now());
  }

 private:
  void close_segment() {
    const double cpu = process_cpu_s();
    const HostTicks h = HostTicks::now();
    const std::uint64_t rows = o_->rows_ok - rows_mark_;
    if (rows > 0) {
      o_->segment_cpu_us_per_row.push_back(1e6 * (cpu - cpu_mark_) /
                                           static_cast<double>(rows));
      o_->segment_latency_p50_ms.push_back(median(o_->latency_ms));
      o_->segment_latency_p99.push_back(percentile(o_->latency_ms, 0.99));
      o_->segment_steal_frac.push_back(steal_frac(h_mark_, h));
    }
    cpu_mark_ = cpu;
    h_mark_ = h;
    rows_mark_ = o_->rows_ok;
    o_->latency_ms.clear();
    next_mark_ += seconds_ / kSegments;
  }

  const double seconds_;
  double next_mark_;
  Outcome* o_;
  WallClock::time_point t0_{};
  double cpu0_ = 0.0;
  double thr0_ = 0.0;
  HostTicks h0_;
  double cpu_mark_ = 0.0;
  HostTicks h_mark_;
  std::uint64_t rows_mark_ = 0;
};

double ms_between(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool rows_match(const std::vector<std::int16_t>& got,
                const std::vector<std::int16_t>& ref, std::size_t first_row,
                std::size_t rows, std::size_t nout) {
  return got.size() == rows * nout &&
         std::memcmp(got.data(), ref.data() + first_row * nout,
                     got.size() * sizeof(std::int16_t)) == 0;
}

/// Builds `spec.setups` stacks, timing each, and keeps the last.
template <class Stack, class Build>
std::unique_ptr<Stack> set_up(const RunSpec& spec, Outcome& o, Build build) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < std::max(spec.setups, 1); ++i) {
    stack.reset();  // tear the previous one down outside the timing
    const auto t0 = WallClock::now();
    stack = build(i);
    o.setup_s.push_back(seconds_since(t0));
  }
  return stack;
}

/// Batcher counters over a timed phase, from metrics snapshots taken
/// before and after it (the p50 covers the server's whole life).
void read_serve_layers(const ssma::serve::MetricsSnapshot& m0,
                       const ssma::serve::MetricsSnapshot& m1, Layers& L) {
  const std::size_t batches = m1.batches - m0.batches;
  L["serve.queue_wait_p50_us"] = m1.queue_p50_us;
  L["serve.batches"] = static_cast<double>(batches);
  L["serve.mean_batch_rows"] = static_cast<double>(m1.tokens - m0.tokens) /
                               static_cast<double>(std::max<std::size_t>(batches, 1));
}

// ------------------------------------------------------------ tcp_journal

constexpr std::size_t kTcpWindow = 16;
constexpr std::size_t kTcpRows = 16;
constexpr std::size_t kTcpPoolRows = 4096;
constexpr std::size_t kCheckpointEvery = 4096;  ///< accepted requests

/// One served model behind the full production path. Teardown runs
/// client -> net -> server -> recovery files, then deletes `dir`. The
/// WAL is flushed, never fsynced, and grows by about 4.7 KB per request
/// for the whole run.
struct TcpStack {
  TcpStack() = default;
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  std::string dir;
  std::optional<Amm> amm;
  QuantizedActivations pool;
  std::vector<std::int16_t> ref;
  std::unique_ptr<ssma::serve::recovery::RequestJournal> journal;
  std::unique_ptr<ssma::serve::recovery::CheckpointManager> ckpts;
  std::unique_ptr<ssma::serve::InferenceServer> server;
  std::unique_ptr<ssma::net::NetServer> net;
  ssma::net::NetClient cli;

  ~TcpStack() {
    cli.close();
    net.reset();
    server.reset();
    ckpts.reset();
    journal.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<TcpStack> build_tcp(const RunSpec& spec, int index) {
  auto s = std::make_unique<TcpStack>();
  s->dir = spec.workdir + "/tcp_journal." + std::to_string(index);
  fs::remove_all(s->dir);
  fs::create_directories(s->dir);
  ssma::Rng rng(spec.seed);
  s->amm.emplace(train_operator(rng, kServeCodebooks, kServeNout));
  s->pool = make_pool(rng, *s->amm, kTcpPoolRows);
  s->ref = s->amm->apply_int16(s->pool);

  s->journal = std::make_unique<ssma::serve::recovery::RequestJournal>(
      s->dir + "/wal");
  s->ckpts = std::make_unique<ssma::serve::recovery::CheckpointManager>(
      s->dir + "/ckpt");
  ssma::serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.engine.backend = ssma::engine::Backend::kKernel;
  opts.recovery.journal = s->journal.get();
  opts.recovery.checkpoints = s->ckpts.get();
  opts.recovery.checkpoint_every = kCheckpointEvery;
  s->server = std::make_unique<ssma::serve::InferenceServer>(opts);
  s->server->register_model("m", *s->amm);
  s->net = std::make_unique<ssma::net::NetServer>(
      *s->server, ssma::net::NetServerOptions{});
  s->cli.connect("127.0.0.1", s->net->port());
  return s;
}

/// Closed loop over one pipelined connection: keep kTcpWindow requests
/// in flight; every response is matched by correlation id and checked.
class TcpLoop {
 public:
  TcpLoop(TcpStack& s, Outcome& o) : s_(s), o_(o) {}

  /// Runs until `phase` ends, then drains the window.
  void run(Phase& phase) {
    record_ = phase.recording();
    while (inflight_.size() < kTcpWindow) send_one();
    while (phase.running()) {
      recv_one();
      send_one();
    }
    while (!inflight_.empty()) recv_one();
  }

 private:
  void send_one() {
    const std::uint64_t corr = next_corr_++;
    const std::size_t first =
        (corr % (kTcpPoolRows / kTcpRows)) * kTcpRows;
    ssma::net::RpcRequest req;
    req.correlation_id = corr;
    req.model_ref = "m";
    req.rows = kTcpRows;
    req.codes.assign(s_.pool.row(first), s_.pool.row(first + kTcpRows));
    inflight_[corr] = {WallClock::now(), first};
    s_.cli.send(req);
    if (record_) ++o_.attempted;
  }

  void recv_one() {
    ssma::net::RpcResponse resp;
    if (!s_.cli.recv_response(&resp))
      throw std::runtime_error("tcp_journal: server closed the connection");
    const auto now = WallClock::now();
    const auto it = inflight_.find(resp.correlation_id);
    if (it == inflight_.end())
      throw std::runtime_error("tcp_journal: unknown correlation id");
    const auto [sent, first] = it->second;
    inflight_.erase(it);
    if (!record_) return;
    if (resp.status == ssma::net::kStatusOk && resp.rows == kTcpRows &&
        rows_match(resp.outputs, s_.ref, first, kTcpRows, kServeNout)) {
      o_.rows_ok += kTcpRows;
      o_.latency_ms.push_back(ms_between(sent, now));
    } else {
      ++o_.failed;
    }
  }

  TcpStack& s_;
  Outcome& o_;
  bool record_ = false;
  std::uint64_t next_corr_ = 0;
  std::unordered_map<std::uint64_t,
                     std::pair<WallClock::time_point, std::size_t>>
      inflight_;
};

// ------------------------------------------------------------ serve_ragged

constexpr std::size_t kRaggedWindow = 16;
constexpr std::size_t kRaggedMaxRows = 24;
constexpr std::size_t kRaggedPoolRows = 4096;
constexpr std::size_t kRaggedSpecs = 4096;

struct RaggedStack {
  std::optional<Amm> amm;
  QuantizedActivations pool;
  std::vector<std::int16_t> ref;
  /// (first row, rows) of each request, cycled through in order.
  std::vector<std::pair<std::size_t, std::size_t>> requests;
  std::unique_ptr<ssma::serve::InferenceServer> server;
};

std::unique_ptr<RaggedStack> build_ragged(const RunSpec& spec) {
  auto s = std::make_unique<RaggedStack>();
  ssma::Rng rng(spec.seed);
  s->amm.emplace(train_operator(rng, kServeCodebooks, kServeNout));
  s->pool = make_pool(rng, *s->amm, kRaggedPoolRows);
  s->ref = s->amm->apply_int16(s->pool);
  for (std::size_t i = 0; i < kRaggedSpecs; ++i) {
    const std::size_t rows = static_cast<std::size_t>(
        rng.next_int(1, static_cast<int>(kRaggedMaxRows)));
    const std::size_t first = rng.next_below(kRaggedPoolRows - rows + 1);
    s->requests.emplace_back(first, rows);
  }
  ssma::serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.engine.backend = ssma::engine::Backend::kKernel;
  s->server = std::make_unique<ssma::serve::InferenceServer>(opts);
  s->server->register_model("m", *s->amm);
  return s;
}

/// Closed loop of in-process submits with kRaggedWindow outstanding;
/// latency runs from submit to the worker's completion stamp.
void ragged_loop(RaggedStack& s, Outcome& o, Phase& phase, bool time_submit,
                 double* submit_cpu_s) {
  const bool record = phase.recording();
  struct Pending {
    std::future<ssma::serve::InferenceResult> fut;
    WallClock::time_point sent;
    std::size_t spec;
  };
  std::deque<Pending> window;
  std::size_t next = 0;
  const auto submit_one = [&] {
    const auto [first, rows] = s.requests[next % s.requests.size()];
    std::vector<std::uint8_t> codes(s.pool.row(first),
                                    s.pool.row(first + rows));
    const double c0 = time_submit ? thread_cpu_s() : 0.0;
    const auto sent = WallClock::now();
    auto fut = s.server->submit("m", std::move(codes), rows);
    if (time_submit) *submit_cpu_s += thread_cpu_s() - c0;
    window.push_back({std::move(fut), sent, next % s.requests.size()});
    ++next;
    if (record) ++o.attempted;
  };
  while (window.size() < kRaggedWindow) submit_one();
  const auto complete_one = [&] {
    Pending p = std::move(window.front());
    window.pop_front();
    const auto [first, rows] = s.requests[p.spec];
    try {
      const ssma::serve::InferenceResult r = p.fut.get();
      if (!record) return;
      if (r.rows == rows &&
          rows_match(r.outputs, s.ref, first, rows, kServeNout)) {
        o.rows_ok += rows;
        o.latency_ms.push_back(ms_between(p.sent, r.completed_at));
      } else {
        ++o.failed;
      }
    } catch (const ssma::serve::RejectedError&) {
      if (record) ++o.failed;
    }
  };
  while (phase.running()) {
    complete_one();
    submit_one();
  }
  while (!window.empty()) complete_one();
}

/// CPU per row of the same server with the TraceSession on over off,
/// minus one: alternating short segments, median of each side. The
/// segments' requests are checked and counted like the timed ones.
double trace_overhead(RaggedStack& s, Outcome& o) {
  constexpr double kSegmentS = 1.0;
  auto& trace = ssma::telemetry::TraceSession::instance();
  std::vector<double> off, on;
  for (int rep = 0; rep < 2; ++rep) {
    for (const bool enabled : {false, true}) {
      trace.clear();
      if (enabled) trace.enable();
      Outcome seg;
      Phase phase(kSegmentS, &seg);
      ragged_loop(s, seg, phase, false, nullptr);
      phase.stop();
      trace.disable();
      o.attempted += seg.attempted;
      o.failed += seg.failed;
      (enabled ? on : off)
          .push_back(seg.cpu_s /
                     static_cast<double>(
                         std::max<std::uint64_t>(seg.rows_ok, 1)));
    }
  }
  trace.clear();
  return median(on) / median(off) - 1.0;
}

/// Back-to-back synchronous calls until `phase` ends: `call(i)` runs the
/// i-th call and says whether its output matched the reference.
template <class Call>
void call_loop(Phase& phase, Outcome& o, std::size_t rows_per_call,
               Call call) {
  for (std::size_t i = 0; phase.running(); ++i) {
    const auto t0 = WallClock::now();
    const bool ok = call(i);
    const auto t1 = WallClock::now();
    if (!phase.recording()) continue;
    ++o.attempted;
    if (ok) {
      o.rows_ok += rows_per_call;
      o.latency_ms.push_back(ms_between(t0, t1));
    } else {
      ++o.failed;
    }
  }
}

// ------------------------------------------------------------ offline_fused

constexpr std::size_t kFusedTileRows = 256;
constexpr std::size_t kFusedTiles = 8;

struct FusedStack {
  std::vector<Amm> stages;
  ssma::engine::ModelRef model;
  std::vector<QuantizedActivations> tiles;
  std::vector<std::vector<std::int16_t>> refs;
};

std::unique_ptr<FusedStack> build_fused(const RunSpec& spec) {
  auto s = std::make_unique<FusedStack>();
  ssma::Rng rng(spec.seed);
  s->stages = train_pipeline(rng);
  s->model = ssma::engine::ModelHandle::from_stages(
      "fused", 1, {&s->stages[0], &s->stages[1], &s->stages[2]});
  for (std::size_t t = 0; t < kFusedTiles; ++t) {
    s->tiles.push_back(make_pool(rng, s->model->stage(0), kFusedTileRows));
    s->refs.push_back(
        ssma::engine::pipeline_reference_apply(*s->model, s->tiles.back()));
  }
  return s;
}

// ------------------------------------------------------------ macro_sim

constexpr std::size_t kSimTokensPerCall = 4;
constexpr std::size_t kSimCalls = 8;  ///< distinct call inputs, cycled

struct SimStack {
  std::optional<Amm> amm;
  std::optional<ssma::core::Accelerator> accel;
  std::vector<QuantizedActivations> calls;
  std::vector<std::vector<std::int16_t>> refs;
};

std::unique_ptr<SimStack> build_sim(const RunSpec& spec) {
  auto s = std::make_unique<SimStack>();
  ssma::Rng rng(spec.seed);
  s->amm.emplace(train_operator(rng, kServeCodebooks, kServeNout));
  ssma::core::AcceleratorOptions ao;
  ao.ndec = 16;
  ao.ns = 32;
  s->accel.emplace(ao);
  for (std::size_t c = 0; c < kSimCalls; ++c) {
    s->calls.push_back(make_pool(rng, *s->amm, kSimTokensPerCall));
    s->refs.push_back(s->amm->apply_int16(s->calls.back()));
  }
  return s;
}

}  // namespace

Outcome run_tcp_journal(const RunSpec& spec) {
  Outcome o;
  o.workload = "tcp_journal";
  auto s = set_up<TcpStack>(spec, o,
                            [&](int i) { return build_tcp(spec, i); });
  TcpLoop loop(*s, o);
  Phase warm(spec.warmup_s, nullptr);
  loop.run(warm);

  const ssma::net::NetServerStats n0 = s->net->stats();
  const ssma::serve::AdmissionStats a0 = s->net->admission_stats();
  const ssma::serve::MetricsSnapshot m0 = s->server->metrics();
  const std::uint64_t j0 = s->journal->durable_bytes();
  Phase phase(spec.seconds, &o);
  loop.run(phase);
  phase.stop();
  const ssma::net::NetServerStats n1 = s->net->stats();
  const ssma::serve::AdmissionStats a1 = s->net->admission_stats();
  const ssma::serve::MetricsSnapshot m1 = s->server->metrics();
  const std::uint64_t j1 = s->journal->durable_bytes();

  const double rows = static_cast<double>(std::max<std::uint64_t>(
      o.rows_ok, 1));
  const double admitted = static_cast<double>(
      std::max<std::uint64_t>(a1.admitted - a0.admitted, 1));
  const double rejects = static_cast<double>(
      std::accumulate(a1.rejects.begin(), a1.rejects.end(), std::uint64_t{0}) -
      std::accumulate(a0.rejects.begin(), a0.rejects.end(), std::uint64_t{0}));
  o.layers["net.bytes_per_row"] =
      static_cast<double>((n1.bytes_read - n0.bytes_read) +
                          (n1.bytes_written - n0.bytes_written)) / rows;
  o.layers["net.read_pauses"] =
      static_cast<double>(n1.read_pauses - n0.read_pauses);
  o.layers["admission.reject_frac"] = rejects / (admitted + rejects);
  o.layers["recovery.journal_bytes_per_req"] =
      static_cast<double>(j1 - j0) / admitted;
  o.layers["recovery.journal_p50_us"] = m1.journal_p50_us;
  read_serve_layers(m0, m1, o.layers);
  return o;
}

Outcome run_serve_ragged(const RunSpec& spec) {
  Outcome o;
  o.workload = "serve_ragged";
  auto s = set_up<RaggedStack>(spec, o,
                               [&](int) { return build_ragged(spec); });
  double submit_cpu_s = 0.0;
  Phase warm(spec.warmup_s, nullptr);
  ragged_loop(*s, o, warm, false, &submit_cpu_s);

  const ssma::serve::MetricsSnapshot m0 = s->server->metrics();
  Phase phase(spec.seconds, &o);
  ragged_loop(*s, o, phase, spec.time_layers, &submit_cpu_s);
  phase.stop();
  const ssma::serve::MetricsSnapshot m1 = s->server->metrics();
  if (spec.time_layers) {
    o.layers["serve.submit_us_per_req"] =
        1e6 * submit_cpu_s /
        static_cast<double>(std::max<std::uint64_t>(o.attempted, 1));
    o.layers["telemetry.trace_overhead_frac"] = trace_overhead(*s, o);
  }
  read_serve_layers(m0, m1, o.layers);
  return o;
}

Outcome run_offline_fused(const RunSpec& spec) {
  Outcome o;
  o.workload = "offline_fused";
  auto s = set_up<FusedStack>(spec, o, [&](int) { return build_fused(spec); });
  ssma::engine::PlanScratch scratch;
  std::vector<std::int16_t> out;
  const auto call = [&](std::size_t i) {
    const std::size_t t = i % kFusedTiles;
    ssma::engine::run_plan(s->model->plan(), s->tiles[t], scratch, out,
                           /*fused=*/true);
    return out == s->refs[t];
  };
  Phase warm(spec.warmup_s, nullptr);
  call_loop(warm, o, kFusedTileRows, call);
  Phase phase(spec.seconds, &o);
  call_loop(phase, o, kFusedTileRows, call);
  phase.stop();
  return o;
}

Outcome run_macro_sim(const RunSpec& spec) {
  Outcome o;
  o.workload = "macro_sim";
  auto s = set_up<SimStack>(spec, o, [&](int) { return build_sim(spec); });
  std::vector<ssma::core::PpaReport> first_cycle;
  std::uint64_t events = 0;
  bool record = false;
  const auto call = [&](std::size_t i) {
    const std::size_t c = i % kSimCalls;
    const ssma::core::AcceleratorResult r =
        s->accel->run(*s->amm, s->calls[c]);
    if (record) {
      events += r.report.events;
      if (i < kSimCalls) first_cycle.push_back(r.report);
    }
    return r.outputs == s->refs[c];
  };
  Phase warm(spec.warmup_s, nullptr);
  call_loop(warm, o, kSimTokensPerCall, call);
  record = true;
  Phase phase(spec.seconds, &o);
  call_loop(phase, o, kSimTokensPerCall, call);
  phase.stop();

  // Counts over the first pass through the call inputs only, so they
  // repeat exactly for a seed whatever the run length.
  const ssma::core::PpaReport cycle =
      ssma::core::merge_sequential_reports(first_cycle);
  o.layers["sim.events_per_s"] = static_cast<double>(events) / o.wall_s;
  o.layers["sim.events_per_token"] =
      static_cast<double>(cycle.events) /
      static_cast<double>(std::max<std::size_t>(first_cycle.size(), 1) *
                          kSimTokensPerCall);
  o.layers["sim.tops_per_w"] = cycle.tops_per_w;
  return o;
}

}  // namespace perfbench
