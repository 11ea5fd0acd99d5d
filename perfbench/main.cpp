// Benchmark binary. One run = one workload, one seed:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setups <k>] [--workdir <dir>]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload with the benchmark timing its own calls, adds short
// passes of the other workloads for the layers this one does not reach,
// probes each layer's public calls, and prints the per-layer metrics.
// Either way a diagnostics line (never gated) precedes the result, and
// the last stdout line is the result object. Any bit mismatch or typed
// reject counts as a failed operation and makes the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common.hpp"
#include "maddness/lut_kernel.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"cpu_us_per_row", "us"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"net.encode_us_per_req", "us"},
    {"net.encode_us_per_resp", "us"},
    {"net.decode_us_per_req", "us"},
    {"net.decode_us_per_resp", "us"},
    {"net.bytes_per_row", "B"},
    {"net.read_pauses", "count"},
    {"maddness.crc32_ns_per_kb", "ns"},
    {"admission.reject_frac", "frac"},
    {"serve.submit_us_per_req", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.mean_batch_rows", "rows"},
    {"serve.batches", "count"},
    {"recovery.journal_append_us", "us"},
    {"recovery.journal_complete_us", "us"},
    {"recovery.journal_p50_us", "us"},
    {"recovery.journal_bytes_per_req", "B"},
    {"recovery.checkpoint_ms", "ms"},
    {"engine.run_batch_us_per_row.r16", "us"},
    {"engine.run_batch_us_per_row.r32", "us"},
    {"engine.run_batch_us_per_row.r48", "us"},
    {"engine.run_batch_us_per_row.r64", "us"},
    {"engine.plan_us_per_row", "us"},
    {"maddness.encode_ns_per_row.r16", "ns"},
    {"maddness.encode_ns_per_row.r32", "ns"},
    {"maddness.encode_ns_per_row.r48", "ns"},
    {"maddness.encode_ns_per_row.r64", "ns"},
    {"maddness.encode_ns_per_row.r256", "ns"},
    {"maddness.lut_ns_per_row.r16", "ns"},
    {"maddness.lut_ns_per_row.r32", "ns"},
    {"maddness.lut_ns_per_row.r48", "ns"},
    {"maddness.lut_ns_per_row.r64", "ns"},
    {"maddness.lut_ns_per_row.r256", "ns"},
    {"maddness.lut_bytes_per_row", "B"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_per_token", "count"},
    {"sim.tops_per_w", "TOPS/W"},
    {"telemetry.trace_overhead_frac", "frac"},
    {"client.cpu_us_per_row", "us"},
    {"host.steal_frac", "frac"},
    {"closure.tcp_journal.cpu_us_per_row", "us"},
    {"closure.tcp_journal.layer_sum_us_per_row", "us"},
    {"closure.tcp_journal.remainder_us_per_row", "us"},
    {"closure.serve_ragged.cpu_us_per_row", "us"},
    {"closure.serve_ragged.layer_sum_us_per_row", "us"},
    {"closure.serve_ragged.remainder_us_per_row", "us"},
};

using Runner = Outcome (*)(const RunSpec&);

Runner runner_for(const std::string& workload) {
  if (workload == "tcp_journal") return run_tcp_journal;
  if (workload == "serve_ragged") return run_serve_ragged;
  if (workload == "offline_fused") return run_offline_fused;
  if (workload == "macro_sim") return run_macro_sim;
  return nullptr;
}

double per_row(double seconds, std::uint64_t rows) {
  return 1e6 * seconds / static_cast<double>(rows ? rows : 1);
}

/// engine.run_batch cost per row at a (fractional) batch size, linear
/// between the measured 16/32/48/64-row cells and clamped outside.
double run_batch_at(const Layers& L, double rows) {
  const double cells[] = {16, 32, 48, 64};
  const auto at = [&](double r) {
    return L.at("engine.run_batch_us_per_row.r" +
                std::to_string(static_cast<int>(r)));
  };
  if (rows <= cells[0]) return at(cells[0]);
  for (int i = 1; i < 4; ++i)
    if (rows <= cells[i]) {
      const double t = (rows - cells[i - 1]) / (cells[i] - cells[i - 1]);
      return (1 - t) * at(cells[i - 1]) + t * at(cells[i]);
    }
  return at(cells[3]);
}

/// Sums the per-row CPU a served row is known to cost: the load
/// generator's own thread (which for serve_ragged includes submit), the
/// kernel batch at the workload's mean batch size, and for tcp_journal
/// the server side of the wire and the WAL. Sets the closure entries of
/// `L` next to the workload's measured CPU per row.
void close_layers(const std::string& workload, const Outcome& o, Layers& L) {
  const double cpu = per_row(o.cpu_s, o.rows_ok);
  double sum = per_row(o.client_cpu_s, o.rows_ok) +
               run_batch_at(L, o.layers.at("serve.mean_batch_rows"));
  if (workload == "tcp_journal")
    sum += (L.at("net.decode_us_per_req") + L.at("serve.submit_us_per_req") +
            L.at("recovery.journal_append_us") +
            L.at("recovery.journal_complete_us") +
            L.at("net.encode_us_per_resp")) /
           16.0;
  const std::string k = "closure." + workload + ".";
  L[k + "cpu_us_per_row"] = cpu;
  L[k + "layer_sum_us_per_row"] = sum;
  L[k + "remainder_us_per_row"] = cpu - sum;
  std::fprintf(stderr,
               "closure %-12s cpu %.3f us/row = layers %.3f + remainder "
               "%.3f (%.1f%% unattributed)\n",
               workload.c_str(), cpu, sum, cpu - sum,
               100.0 * (cpu - sum) / cpu);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} over `metrics`, in order.
template <std::size_t N>
std::string metrics_json(const Metric (&metrics)[N], const Layers& values) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(metrics[i].name);
    if (it == values.end() || !std::isfinite(it->second))
      throw std::runtime_error(std::string("metric not measured: ") +
                               metrics[i].name);
    if (i) s += ", ";
    s += std::string("\"") + metrics[i].name + "\": {\"value\": " +
         num(it->second) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

/// The never-gated noise and volume figures of one workload run. Tail
/// latency is per segment: the median over segments of each segment's
/// p99, with a segment's sample count and the samples beyond its p99.
std::string diagnostics_json(const Outcome& o) {
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
    return s + "]";
  };
  std::vector<double> p99, samples, beyond;
  for (const Percentile& p : o.segment_latency_p99) {
    p99.push_back(p.value);
    samples.push_back(static_cast<double>(p.samples));
    beyond.push_back(static_cast<double>(p.beyond));
  }
  return "{\"workload\": \"" + o.workload + "\", \"attempted\": " +
         std::to_string(o.attempted) + ", \"succeeded\": " +
         std::to_string(o.attempted - o.failed) + ", \"failed\": " +
         std::to_string(o.failed) + ", \"rows\": " +
         std::to_string(o.rows_ok) + ", \"wall_s\": " + num(o.wall_s) +
         ", \"rows_per_s\": " + num(o.rows_ok / std::max(o.wall_s, 1e-9)) +
         ", \"latency_p99_ms\": " + num(median(p99)) +
         ", \"latency_p99_samples\": " + num(median(samples)) +
         ", \"latency_p99_beyond\": " + num(median(beyond)) +
         ", \"host.steal_frac\": " + num(o.steal_frac) +
         ", \"client.cpu_us_per_row\": " +
         num(per_row(o.client_cpu_s, o.rows_ok)) +
         ", \"setup_s\": " + list(o.setup_s) +
         ", \"segment_cpu_us_per_row\": " + list(o.segment_cpu_us_per_row) +
         ", \"segment_latency_p50_ms\": " + list(o.segment_latency_p50_ms) +
         ", \"segment_latency_p99_ms\": " + list(p99) +
         ", \"segment_steal_frac\": " + list(o.segment_steal_frac) +
         ", \"kernel_tier\": \"" +
         ssma::maddness::kernel_tier_name(ssma::maddness::select_kernel_tier()) +
         "\"}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setups = 5;
  std::string workdir;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a->trace = std::strcmp(v, "0") != 0;
    else if (k == "--setups") a->setups = std::atoi(v);
    else if (k == "--workdir") a->workdir = v;
    else return false;
  }
  return argc % 2 == 1 && runner_for(a->workload) && a->seconds > 0 &&
         a->setups >= 1;
}

int run(const Args& a) {
  RunSpec spec;
  spec.seed = a.seed;
  spec.seconds = a.seconds;
  spec.setups = a.setups;
  spec.time_layers = a.trace;
  spec.workdir = a.workdir.empty()
                     ? ".perfbench-work." + std::to_string(::getpid())
                     : a.workdir;
  std::filesystem::create_directories(spec.workdir);

  const Outcome named = runner_for(a.workload)(spec);
  std::uint64_t attempted = named.attempted;
  std::uint64_t failed = named.failed;
  std::printf("{\"diagnostics\": %s}\n", diagnostics_json(named).c_str());

  std::string metrics;
  if (!a.trace) {
    Layers e2e;
    // Lower quartile over segments: a stretch of host steal shorter than
    // three quarters of the run leaves the figure alone.
    e2e["cpu_us_per_row"] =
        percentile(named.segment_cpu_us_per_row, 0.25).value;
    e2e["latency_p50_ms"] =
        percentile(named.segment_latency_p50_ms, 0.25).value;
    e2e["setup_s"] = median(named.setup_s);
    e2e["peak_rss_mb"] = peak_rss_mb();
    metrics = metrics_json(kEndToEnd, e2e);
  } else {
    // Layers this workload does not reach come from a short pass of the
    // workload that does; the named workload's own readings win.
    Layers L = named.layers;
    L["client.cpu_us_per_row"] = per_row(named.client_cpu_s, named.rows_ok);
    L["host.steal_frac"] = named.steal_frac;
    RunSpec brief = spec;
    brief.seconds = 1.0;
    brief.setups = 1;
    brief.warmup_s = 0.2;
    std::map<std::string, Outcome> served;
    if (a.workload == "tcp_journal" || a.workload == "serve_ragged")
      served[a.workload] = named;
    for (const char* w : {"serve_ragged", "tcp_journal", "macro_sim"}) {
      if (a.workload == w) continue;
      const Outcome o = runner_for(w)(brief);
      std::printf("{\"diagnostics\": %s}\n", diagnostics_json(o).c_str());
      attempted += o.attempted;
      failed += o.failed;
      L.insert(o.layers.begin(), o.layers.end());
      if (std::strcmp(w, "macro_sim") != 0) served[w] = o;
    }
    const Layers probes = probe_layers(a.seed, spec.workdir);
    L.insert(probes.begin(), probes.end());
    for (const auto& [w, o] : served) close_layers(w, o, L);
    metrics = metrics_json(kPerLayer, L);
  }
  std::filesystem::remove_all(spec.workdir);

  const bool correct = failed == 0 && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "tcp_journal|serve_ragged|offline_fused|macro_sim "
                 "--seed N --seconds S --trace 0|1 [--setups K] "
                 "[--workdir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
