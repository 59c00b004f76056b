#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of distsplit.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt, into .bench_build/perfbench of
the checkout), runs one workload (or all of them in turn) and prints every
metric by name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. Every sample's output is
checked against a sequential reference digest computed in set-up; any failed
sample makes "correct" false. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("cli-torus-mis", "parallel-torus-color", "insitu-gnp-mis",
             "serve-torus-mixed")

END_TO_END = (("wall_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

PER_LAYER = (
    ("graph.generate_s", "s"), ("graph.shard_s", "s"),
    ("local.topology_s", "s"), ("local.make_env_ns_per_node", "ns"),
    ("local.send_s", "s"), ("local.receive_s", "s"),
    ("runtime.epoch_mean_s", "s"), ("runtime.straggler_s", "s"),
    ("dist.partition_s", "s"), ("dist.cut_edges", "count"),
    ("dist.balance", "ratio"), ("dist.round_s", "s"),
    ("net.ship_s", "s"), ("net.barrier_s", "s"), ("net.patch_s", "s"),
    ("net.tx_bytes", "bytes"), ("net.tx_frames", "count"),
    ("net.poll_iterations", "count"), ("net.retries", "count"),
    ("algo.execute_s", "s"), ("algo.unattributed_s", "s"),
    ("algo.digest_s", "s"), ("algo.rounds", "count"),
    ("serve.server_ms", "ms"), ("serve.client_overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "fraction"), ("serve.rejected", "count"),
    ("obs.trace_overhead_frac", "fraction"),
)

# One run must end within 180 s; the driver gets what the build leaves.
RUN_BUDGET_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "algo" / "registry.hpp").is_file():
        fail("no library sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                 "--target", "perfbench_driver"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench_driver"


def run_driver(exe, workload, seed, seconds, trace, timeout):
    """Runs the driver in its own process group and returns its raw JSON."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %.0f s" % (workload, timeout))
    finally:
        # Nothing the driver forked may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("driver failed on %s (exit %d)" % (workload, proc.returncode))
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("driver printed nothing for " + workload)
    return json.loads(lines[-1])


def end_to_end(raw):
    samples = [s for s in raw["samples"] if s["status"] == stats.OK]
    walls = [s["wall_s"] for s in samples]
    if not walls:
        return None
    rss = raw["peak_rss_mb"] or stats.median([s["rss_mb"] for s in samples])
    return {
        "wall_s": stats.median(walls),
        "ops_per_s": len(walls) / raw["measured_s"],
        "peak_rss_mb": rss,
        "setup_s": stats.median(raw["setup_s"]),
    }


def per_layer(raw):
    ok = [s for s in raw["samples"] if s["status"] == stats.OK]
    traced = [s for s in ok if s["traced"]]
    untraced = [s for s in ok if not s["traced"]]
    if not traced or not untraced:
        return None
    values = dict(raw["layers"])
    for name in {k for s in traced for k in s["layers"]}:
        values[name] = stats.median(
            [s["layers"][name] for s in traced if name in s["layers"]])
    served = [s for s in traced if s["server_s"] > 0]
    if served:
        # Means, not medians: the daemon reports whole milliseconds.
        values["serve.server_ms"] = 1e3 * statistics.mean(
            s["server_s"] for s in served)
        values["serve.client_overhead_ms"] = 1e3 * statistics.mean(
            s["wall_s"] - s["server_s"] for s in served)
        values["serve.rejected"] = sum(
            1 for s in raw["samples"] if s["status"] == "rejected")
    values["obs.trace_overhead_frac"] = (
        stats.median([s["wall_s"] for s in traced]) /
        stats.median([s["wall_s"] for s in untraced]) - 1.0)
    # A layer the workload's path does not run reads 0.
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def summarize(workload, raw, trace):
    """(metrics dict, attempted, failed) of one workload run."""
    attempted, failed = stats.count_failures(raw["samples"])
    values = per_layer(raw) if trace else end_to_end(raw)
    if values is None:
        fail("no successful samples on " + workload)
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    walls = sorted(s["wall_s"] for s in raw["samples"]
                   if s["status"] == stats.OK and not s["traced"])
    tail = stats.tail_percentile(len(walls))
    print("%s: %d attempted, %d failed, error_rate %.4f, %d timed samples%s"
          % (workload, attempted, failed, stats.error_rate(raw["samples"]),
             len(walls),
             "" if tail is None else ", p%g %.6f s"
             % (tail, stats.percentile(walls, tail))))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    return metrics, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    exe = build()
    timeout = max(30.0, RUN_BUDGET_S - (time.monotonic() - start))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        raw = run_driver(exe, name, args.seed, args.seconds, args.trace,
                         timeout)
        metrics, attempted, failed = summarize(name, raw, args.trace)
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(names) == 1 else name + "."
        for key, m in metrics.items():
            result["metrics"][prefix + key] = m
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
