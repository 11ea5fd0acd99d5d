#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload tcp_journal --seed 1 --seconds 10 --trace 0

The last stdout line is the result object; the lines before it are
diagnostics. Other modes:

    --selftest   unit tests of the statistics helpers (C++ and Python)
    --smoke      every workload briefly, untraced and traced, outputs checked
    --steady     N seeded runs per workload; prints each end-to-end metric's
                 median and quartile spread against its bound

Build products and run scratch files go to $CARGO_TARGET_DIR (default
.bench_build) under the checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tcp_journal", "serve_ragged", "offline_fused", "macro_sim"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binaries up to date. Returns the
    build directory; raises RuntimeError with the tool output on failure."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4",
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise RuntimeError("build failed: %s\n%s" %
                               (" ".join(cmd), proc.stdout[-4000:]))
    return out


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


def check_result(line, trace):
    """Parses the result line and checks it against the contract and the
    declared metrics. Returns the result dict; raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    e2e, per_layer, _ = declared_metrics()
    want = per_layer if trace else e2e
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    return result


def run_once(binary, workload, seed, seconds, trace, setups=None):
    """Runs one benchmark process. Returns (exit code, stdout lines)."""
    workdir = os.path.join(os.path.dirname(build_dir()),
                           "work.%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def spread(values):
    """Interquartile distance over the median, quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main_run(args):
    binary = os.path.join(build(), "perfbench")
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    if code == 0:
        check_result(lines[-1] if lines else "{}", args.trace)
    print("\n".join(lines), flush=True)
    if code != 0:
        log("perfbench exited with %d" % code)
    return code


def main_selftest():
    out = build()
    code = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner().run(suite).wasSuccessful()
    return 0 if code == 0 and ok else 1


def main_smoke(args):
    binary = os.path.join(build(), "perfbench")
    failures = 0
    for trace in (False, True):
        for workload in WORKLOADS if not trace else WORKLOADS[:1]:
            code, lines = run_once(binary, workload, args.seed, 0.5, trace,
                                   setups=1)
            try:
                result = check_result(lines[-1], trace) if lines else None
                ok = code == 0 and result and result["correct"]
            except ValueError as e:
                log(str(e))
                ok = False
            log("smoke %-14s trace=%d %s" % (workload, trace,
                                             "ok" if ok else "FAILED"))
            failures += not ok
    return 1 if failures else 0


def main_steady(args):
    binary = os.path.join(build(), "perfbench")
    e2e, _, spec = declared_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        values = {name: [] for name in e2e}
        for i in range(args.runs):
            t0 = time.monotonic()
            code, lines = run_once(binary, workload, args.seed + i,
                                   args.seconds, False)
            elapsed = time.monotonic() - t0
            if code != 0:
                log("%s seed %d failed (exit %d)" % (workload,
                                                     args.seed + i, code))
                return 1
            for name, m in json.loads(lines[-1])["metrics"].items():
                values[name].append(m["value"])
            diag = json.loads(lines[-2])["diagnostics"]
            log("%s seed %d (%.1f s): %s | steal %.3f rows/s %.0f "
                "p99 %.3f ms (n=%d)"
                % (workload, args.seed + i, elapsed,
                   " ".join("%s=%.6g" % (k, v[-1]) for k, v in values.items()),
                   diag["host.steal_frac"], diag["rows_per_s"],
                   diag["latency_p99_ms"], diag["latency_p99_samples"]))
        for name, vals in values.items():
            s = spread(vals)
            if name != "setup_s":
                worst = max(worst, s / bounds[name])
            print("%-14s %-15s median %-12.6g spread %.4f  bound %.2f  %s" % (
                workload, name, statistics.median(vals), s, bounds[name],
                "(spread not gated)" if name == "setup_s"
                else "ok" if s < bounds[name] / 3 else
                "WITHIN BOUND" if s < bounds[name] else "TOO NOISY"),
                flush=True)
    return 0 if worst < 1.0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads",
                   help="comma-separated (default: those BENCHMARK.json "
                        "declares)")
    args = p.parse_args()
    try:
        if args.selftest:
            return main_selftest()
        if args.smoke:
            return main_smoke(args)
        if args.steady:
            return main_steady(args)
        if not args.workload:
            p.error("--workload is required")
        return main_run(args)
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
