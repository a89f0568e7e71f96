"""The sim-fig7-* workloads: runs perfbench_sim (src/sim_fig7.cpp) and
checks every round's delivery sequences against the groups each multicast
was addressed to."""

import json
import os
import subprocess

import check
import procfs
import spans


def run(bins, workdir, proto, seed, seconds, trace):
    os.makedirs(workdir)
    cmd = [os.path.join(bins, "perfbench_sim"), f"--proto={proto}",
           f"--seed={seed}",
           f"--seconds={seconds}", f"--out={workdir}",
           f"--trace={1 if trace else 0}"]
    before = procfs.read_cpu_times()
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=120).stdout
    after = procfs.read_cpu_times()
    results = [check_round(workdir, json.loads(line), trace)
               for line in out.splitlines() if line]
    return results, procfs.steal_pct(before, after)


def check_round(workdir, r, trace):
    prefix = os.path.join(workdir, f"r{r['round']}_")
    size = r["group_size"]
    groups = {}
    for p in range(r["replicas"]):
        groups.setdefault(p // size, []).append(
            check.read_ids(f"{prefix}replica_{p}.txt"))
    addressed = {}
    with open(prefix + "addressed.txt") as f:
        for line in f:
            mid, group = line.split()
            addressed.setdefault(mid, set()).add(int(group))
    ok, why, _ = check.check(groups, addressed=addressed)
    out = {
        "ok": ok,
        "why": why,
        "ops": r["ops"],
        "window_s": (r["t_close_ns"] - r["t_open_ns"]) / 1e9,
        "setup_s": r["setup_s"],
        "cpu_ns": r["cpu_ns"],
        "p50_ms": r["p50_ns"] / 1e6,
        "p99_ms": r["p99_ns"] / 1e6,
        "stage_buckets": {name: dict(map(tuple, b))
                          for name, b in r["stage_buckets"].items()},
        "counters": {"buffer/buffers_frozen": r["buffers_frozen"],
                     "buffer/bytes_copied": r["bytes_copied"]},
        "peak_rss_kb": r["rss_close_kb"],
        "rss_growth_kb": r["rss_close_kb"] - r["rss_open_kb"],
    }
    if trace:
        logs = spans.read(prefix + "spans.bin")
        t0, t1 = r["t_open_ns"], r["t_close_ns"]
        leaders = set(r["leaders"])
        totals = {"handler": 0, "leader_handler": 0, "follower_handler": 0,
                  "self": 0, "leader_self": 0, "client": 0}
        for pid in {pid for pid, _ in logs}:
            h = spans.window_ns(logs, pid, "handler", t0, t1)
            if pid >= r["replicas"]:
                totals["client"] += h
                continue
            inner = sum(spans.window_ns(logs, pid, k, t0, t1)
                        for k in ("send", "apply", "wal_commit"))
            totals["handler"] += h
            totals["self"] += h - inner
            if pid in leaders:
                totals["leader_handler"] += h
                totals["leader_self"] += h - inner
            else:
                totals["follower_handler"] += h
        out.update({
            "handler_self_ns": totals["self"],
            "leader_handler_self_ns": totals["leader_self"],
            "leader_cpu_ns": totals["leader_handler"],
            "follower_cpu_ns": totals["follower_handler"],
            "driver_handler_ns": totals["client"],
            "engine_ns": (t1 - t0) - totals["handler"] - totals["client"],
        })
    return out
