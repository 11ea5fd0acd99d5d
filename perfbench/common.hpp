// Shared pieces of the benchmark binary: clocks and resource counters,
// the seeded operators and input pools every workload builds, and the
// result record a workload hands back to main.cpp.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"
#include "maddness/amm.hpp"
#include "maddness/quantize.hpp"
#include "stats.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace perfbench {

// ------------------------------------------------------------ clocks

using WallClock = std::chrono::steady_clock;

inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// User + system CPU of the whole process (every thread), seconds.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU time of the calling thread, seconds.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of the process so far, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Aggregate CPU ticks of the host from /proc/stat: all states, and the
/// share the hypervisor stole. Zeros where /proc/stat is unreadable.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static HostTicks now() {
    HostTicks t;
    std::ifstream is("/proc/stat");
    std::string cpu;
    is >> cpu;
    if (cpu != "cpu") return t;
    for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
      std::uint64_t v = 0;
      if (!(is >> v)) break;
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};

/// Steal ticks over all ticks between two readings (0..1).
inline double steal_frac(const HostTicks& a, const HostTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total ? static_cast<double>(b.steal - a.steal) /
                     static_cast<double>(total)
               : 0.0;
}

// ------------------------------------------------------------ inputs

/// Operator shapes of the served model (the kernel-mode serving shape
/// the ROADMAP measures: 32 codebooks of 9 dims -> 64 outputs).
inline constexpr int kServeCodebooks = 32;
inline constexpr int kServeNout = 64;

/// Uniform activations in [0, 220), the range the serving benches use.
inline ssma::Matrix random_activations(ssma::Rng& rng, std::size_t rows,
                                       std::size_t cols) {
  ssma::Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 220));
  return x;
}

inline ssma::Matrix random_weights(ssma::Rng& rng, std::size_t rows,
                                   std::size_t cols) {
  ssma::Matrix w(rows, cols);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  return w;
}

/// Trains an ncb-codebook operator with `nout` outputs on 512 rows.
inline ssma::maddness::Amm train_operator(ssma::Rng& rng, int ncb, int nout) {
  ssma::maddness::Config cfg;
  cfg.ncodebooks = ncb;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  const ssma::Matrix x = random_activations(rng, 512, d);
  return ssma::maddness::Amm::train(cfg, x, random_weights(rng, d, nout));
}

/// The offline_fused model: three chained ncb=32 stages,
/// 288 -> 288 -> 288 -> 128, each calibrated on its predecessor's output.
inline std::vector<ssma::maddness::Amm> train_pipeline(ssma::Rng& rng) {
  ssma::maddness::Config cfg;
  cfg.ncodebooks = kServeCodebooks;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  ssma::Matrix act = random_activations(rng, 384, d);
  std::vector<ssma::maddness::Amm> stages;
  for (const std::size_t width : {d, d, std::size_t{128}}) {
    ssma::Matrix next;
    stages.push_back(ssma::engine::train_chained_stage(
        cfg, act, random_weights(rng, d, width), &next));
    act = std::move(next);
  }
  return stages;
}

/// `rows` fresh rows quantized with the operator's calibrated scale.
inline ssma::maddness::QuantizedActivations make_pool(
    ssma::Rng& rng, const ssma::maddness::Amm& amm, std::size_t rows) {
  return ssma::maddness::quantize_activations(
      random_activations(rng, rows, static_cast<std::size_t>(
                                        amm.cfg().total_dims())),
      amm.activation_scale());
}

/// Rows [first, first + n) of a pool as a batch of its own.
inline ssma::maddness::QuantizedActivations slice_rows(
    const ssma::maddness::QuantizedActivations& q, std::size_t first,
    std::size_t n) {
  ssma::maddness::QuantizedActivations out;
  out.rows = n;
  out.cols = q.cols;
  out.scale = q.scale;
  out.codes.assign(q.row(first), q.row(first) + n * q.cols);
  return out;
}

// ------------------------------------------------------------ results

/// Per-layer readings, by metric name.
using Layers = std::map<std::string, double>;

/// What one workload run measured. The timed phase covers [start of
/// the first timed request, last response of the drain].
struct Outcome {
  std::string workload;
  std::uint64_t attempted = 0;  ///< requests (or calls) issued
  std::uint64_t failed = 0;     ///< bit mismatches + typed rejects
  std::uint64_t rows_ok = 0;    ///< rows served correctly
  double cpu_s = 0.0;           ///< process CPU over the timed phase
  double client_cpu_s = 0.0;    ///< load-generator thread CPU, same phase
  double wall_s = 0.0;          ///< timed phase wall time
  double steal_frac = 0.0;      ///< host steal share over the timed phase
  /// Latency of each successful request/call of the current segment.
  std::vector<double> latency_ms;
  // One entry per timed segment:
  std::vector<double> segment_cpu_us_per_row;
  std::vector<double> segment_latency_p50_ms;
  std::vector<Percentile> segment_latency_p99;
  std::vector<double> segment_steal_frac;
  std::vector<double> setup_s;     ///< one per set-up in the run
  Layers layers;  ///< counters read from the program after the run
};

/// How long to run and how often to set up.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 5;
  double warmup_s = 0.5;
  bool time_layers = false;  ///< also time the generator's own calls
  std::string workdir;       ///< scratch files of this run (journal etc.)
};

// Workload entry points (workloads.cpp). With `time_layers` set,
// run_serve_ragged also times its submit calls and measures the
// TraceSession overhead on the same server after the timed phase.
Outcome run_tcp_journal(const RunSpec& spec);
Outcome run_serve_ragged(const RunSpec& spec);
Outcome run_offline_fused(const RunSpec& spec);
Outcome run_macro_sim(const RunSpec& spec);

/// Single-thread timings of each layer's public calls at the served
/// shapes, plus counts computed from the shapes (layers.cpp).
Layers probe_layers(std::uint64_t seed, const std::string& workdir);

}  // namespace perfbench
