#!/usr/bin/env python3
"""The repository's benchmark: KV over TCP on WbCast and durable WbCast, plus
WbCast and FT-Skeen on the Fig. 7 simulator (README.md in this directory).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the programs into
.bench_build (CMake, this directory's CMakeLists.txt), runs the workload in
rounds (TCP: five of S/5 seconds, sim: ten of S/10), each on a freshly
set-up cluster or world, checks every delivery sequence, and prints as its
last line one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics from the traced
run with --trace 1). Each end-to-end figure is the mean of the rounds left
after dropping the lowest and the highest fifth: a round the host
disturbed is dropped, and the mean still moves in finer steps than the
latency histogram's buckets.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import check
import procfs
import sim
import tcp

# Rounds of a TCP run. perfbench_sim runs ten of its own: a simulated world
# is cheap to set up, and the simulator's speed jitters from one second to
# the next on a shared host (10 % between consecutive rounds).
ROUNDS = 5
# The measured processes share one CPU. On a shared host a guest whose
# vCPUs are all busy loses a varying share of them to its neighbours
# (steal): on four busy vCPUs 1 % to 42 % within one hour, which moved KV
# throughput between 29k and 6k ops/s; on two, 0.4 % to 13 %; on one,
# under 4 %. With one CPU the cluster's throughput is also simply the
# inverse of its CPU cost per operation. The budget line records it.
CPUS = 1
# There is no FT-Skeen workload over TCP: now and then one of its runs ends
# with a follower a few deliveries behind its leader for good (README.md,
# "Open faults"). FT-Skeen runs on the simulator instead.
WORKLOADS = {
    "kv-wbcast": {"proto": "wbcast", "sim": False, "wal": False},
    "kv-wbcast-wal": {"proto": "wbcast", "sim": False, "wal": True},
    "sim-fig7-wbcast": {"proto": "wbcast", "sim": True},
    "sim-fig7-ftskeen": {"proto": "ftskeen", "sim": True},
}
STAGES = ("leader_receipt", "ts_agreed", "gts_known", "delivered")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build(root):
    if not os.path.isfile(os.path.join(root, "examples", "wbamd.cpp")):
        fail(f"no program sources under {root}")
    out = os.path.join(root, ".bench_build")
    src = os.path.dirname(os.path.abspath(__file__))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(procfs.cores())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def percentile_ms(buckets, q):
    """The C++ stats::Histogram::percentile over merged raw buckets."""
    count = sum(buckets.values())
    if count == 0:
        return 0.0
    target = int(q * (count - 1)) + 1
    seen = 0
    for ub in sorted(buckets):
        seen += buckets[ub]
        if seen >= target:
            return ub / 1e6
    return 0.0


def stage_metrics(rounds, proto):
    merged = {}
    for r in rounds:
        for name, buckets in r["stage_buckets"].items():
            into = merged.setdefault(name, {})
            for ub, n in buckets.items():
                into[int(ub)] = into.get(int(ub), 0) + n
    out = {}
    previous = 0.0
    for stage in STAGES:
        p50 = percentile_ms(merged.get(f"stage/{proto}/{stage}", {}), 0.5)
        out[f"stage.{stage}_ms"] = p50 - previous if p50 else 0.0
        previous = p50 or previous
    for stage in ("chosen", "applied"):
        out[f"stage.paxos_{stage}_ms"] = percentile_ms(
            merged.get(f"stage/paxos/{stage}", {}), 0.5)
    return out


def middle_mean(values):
    """Mean without the lowest and the highest fifth of the values."""
    values = sorted(values)
    k = len(values) // 5
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(rounds):
    return {
        "throughput_ops_s": (middle_mean(r["ops"] / r["window_s"]
                                         for r in rounds), "ops/s"),
        "latency_p50_ms": (middle_mean(r["p50_ms"] for r in rounds), "ms"),
        "latency_p99_ms": (middle_mean(r["p99_ms"] for r in rounds), "ms"),
        "cpu_us_per_op": (middle_mean(r["cpu_ns"] / r["ops"] / 1e3
                                      for r in rounds), "us"),
        "peak_rss_mb": (middle_mean(r["peak_rss_kb"] / 1024
                                    for r in rounds), "MB"),
        "setup_s": (middle_mean(r["setup_s"] for r in rounds), "s"),
    }


def per_op(rounds, key, ops, scale=1.0):
    return sum(r.get(key, 0) for r in rounds) * scale / ops


def counter_per_op(rounds, name, ops):
    return sum(r["counters"].get(name, 0) for r in rounds) / ops


def tcp_metrics(rounds, ops, trace, proto):
    window = sum(r["window_s"] for r in rounds)
    budget = {
        "budget.cores": procfs.cores(),
        "budget.processes": rounds[0]["processes"],
        "budget.loop_threads": max(r["loop_threads"] for r in rounds),
        "budget.steal_pct": statistics.median(r["steal_pct"] for r in rounds),
    }
    if not trace:
        return end_to_end(rounds), budget
    frames = sum(r["counters"].get("net/frames_sent", 0) for r in rounds)
    writevs = sum(r["counters"].get("net/writev_calls", 0) for r in rounds)
    wal_bytes = sum(r["counters"].get("wal/bytes_written", 0) for r in rounds)
    m = {
        "net.frames_per_op": (frames / ops, "frames"),
        "net.writev_per_op": (writevs / ops, "calls"),
        "net.read_per_op": (counter_per_op(rounds, "net/read_calls", ops),
                            "calls"),
        "net.frames_per_writev": (frames / writevs if writevs else 0.0,
                                  "ratio"),
        "net.acks_per_op": (counter_per_op(rounds, "net/acks_sent", ops),
                            "frames"),
        "net.wakeups_per_op": (per_op(rounds, "nvcsw", ops), "count"),
        "net.bytes_written_per_op": (
            (sum(r["wchar"] for r in rounds) - wal_bytes) / ops, "bytes"),
        "net.self_us_per_op": (per_op(rounds, "transport_self_ns", ops, 1e-3),
                               "us"),
        "cpu.leader_us_per_op": (per_op(rounds, "leader_cpu_ns", ops, 1e-3),
                                 "us"),
        "cpu.follower_us_per_op": (
            per_op(rounds, "follower_cpu_ns", ops, 1e-3), "us"),
        "apply.us_per_op": (per_op(rounds, "apply_ns", ops, 1e-3), "us"),
        "wal.fsyncs_per_op": (counter_per_op(rounds, "wal/fsyncs", ops),
                              "count"),
        "wal.commits_per_op": (counter_per_op(rounds, "wal/commits", ops),
                               "count"),
        "wal.bytes_per_op": (wal_bytes / ops, "bytes"),
        "wal.commit_us_per_op": (per_op(rounds, "wal_commit_ns", ops, 1e-3),
                                 "us"),
        "mem.leader_rss_kb_per_kop": (
            per_op(rounds, "leader_rss_growth_kb", ops, 1000), "KB/kop"),
        "loadgen.cpu_us_per_op": (per_op(rounds, "driver_cpu_ns", ops, 1e-3),
                                  "us"),
        "sim.engine_us_per_op": (0.0, "us"),
        "trace.throughput_ops_s": (ops / window, "ops/s"),
    }
    m.update(common_trace_metrics(rounds, ops, proto))
    return m, budget


def common_trace_metrics(rounds, ops, proto):
    m = {
        "handler.us_per_op": (per_op(rounds, "handler_self_ns", ops, 1e-3),
                              "us"),
        "handler.leader_us_per_op": (
            per_op(rounds, "leader_handler_self_ns", ops, 1e-3), "us"),
        "buffer.frozen_per_op": (
            counter_per_op(rounds, "buffer/buffers_frozen", ops), "buffers"),
        "buffer.bytes_copied_per_op": (
            counter_per_op(rounds, "buffer/bytes_copied", ops), "bytes"),
    }
    m.update({k: (v, "ms") for k, v in stage_metrics(rounds, proto).items()})
    return m


def sim_metrics(rounds, ops, trace, steal, proto):
    window = sum(r["window_s"] for r in rounds)
    budget = {"budget.cores": procfs.cores(), "budget.processes": 1,
              "budget.loop_threads": 1, "budget.steal_pct": steal}
    if not trace:
        return end_to_end(rounds), budget
    zero_net = ("net.frames_per_op", "net.writev_per_op", "net.read_per_op",
                "net.frames_per_writev", "net.acks_per_op",
                "net.wakeups_per_op", "net.bytes_written_per_op",
                "net.self_us_per_op")
    m = {name: (0.0, unit) for name, unit in zip(
        zero_net, ("frames", "calls", "calls", "ratio", "frames", "count",
                   "bytes", "us"))}
    m.update({
        "cpu.leader_us_per_op": (per_op(rounds, "leader_cpu_ns", ops, 1e-3),
                                 "us"),
        "cpu.follower_us_per_op": (
            per_op(rounds, "follower_cpu_ns", ops, 1e-3), "us"),
        "apply.us_per_op": (0.0, "us"),
        "wal.fsyncs_per_op": (0.0, "count"),
        "wal.commits_per_op": (0.0, "count"),
        "wal.bytes_per_op": (0.0, "bytes"),
        "wal.commit_us_per_op": (0.0, "us"),
        # The rounds share one process: later rounds reuse the pages the
        # first one's world freed, so only the first round's growth shows
        # what the replicas retain.
        "mem.leader_rss_kb_per_kop": (
            per_op(rounds[:1], "rss_growth_kb", rounds[0]["ops"], 1000),
            "KB/kop"),
        "loadgen.cpu_us_per_op": (
            per_op(rounds, "driver_handler_ns", ops, 1e-3), "us"),
        "sim.engine_us_per_op": (per_op(rounds, "engine_ns", ops, 1e-3),
                                 "us"),
        "trace.throughput_ops_s": (ops / window, "ops/s"),
    })
    m.update(common_trace_metrics(rounds, ops, proto))
    return m, budget


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    problems = check.self_test()
    if problems:
        fail("delivery check self-test failed: " + "; ".join(problems))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bins = build(root)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:CPUS])

    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = WORKLOADS[args.workload]
    trace = args.trace == 1
    try:
        if spec["sim"]:
            rounds, steal = sim.run(
                bins, os.path.join(workdir, "sim"), spec["proto"], args.seed,
                args.seconds, trace)
        else:
            rounds = [tcp.run_round(bins, os.path.join(workdir, f"round{i}"),
                                    spec["proto"], spec["wal"], args.seed,
                                    args.seconds / ROUNDS, trace)
                      for i in range(ROUNDS)]
    except (tcp.RoundFailed, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"{args.workload}: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if any(r["ops"] == 0 for r in rounds):
        fail(f"{args.workload}: a round completed no operation")
    ops = sum(r["ops"] for r in rounds)
    if spec["sim"]:
        metrics, budget = sim_metrics(rounds, ops, trace, steal,
                                      spec["proto"])
    else:
        metrics, budget = tcp_metrics(rounds, ops, trace, spec["proto"])
    bad = [r["why"] for r in rounds if not r["ok"]]
    for why in bad:
        print(f"perfbench: delivery check FAILED: {why}", file=sys.stderr)
    print("cpu budget: " + ", ".join(f"{k.split('.')[1]} {v:g}"
                                     for k, v in budget.items()))
    if trace:
        metrics.update({k: (v, "%" if k.endswith("pct") else "count")
                        for k, v in budget.items()})
    print(json.dumps({
        "correct": not bad,
        "attempted": ops,
        "failed": ops if bad else 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
