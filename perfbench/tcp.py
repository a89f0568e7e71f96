"""The KV-over-TCP workloads: one loopback cluster of the shipped wbamd and
wbamctl per round, launched as scripts/wbam_deploy.py local does, with the
window-scoped ledger taken from outside the processes.

Process layout (2 groups x 3 replicas): pids 0-5 replicas (leaders 0 and
3), pid 6 the single ctrl::BenchDriver holding all 32 closed-loop sessions,
pid 7 the wbamctl coordinator seat, which generates no load. No transport
flag is passed: the processes run the shipped default loop count. With
the WAL, every replica logs to a fresh directory of its round with fsync
off: with group commit (one fsync per handler batch) the throughput of
five runs spread by 43 % on the shared virtual disk, so the workload
measures the log's write path (records, batching, one writev per commit)
and not the disk.

A round:
  1. launch the seven wbamd processes and wbamctl (coordinator warmup
     0.5 s);
  2. once every wbamd catches SIGUSR1, probe replica 0 with it, one
     signal at a time, until its registry shows a delivery: the load has
     started, set-up ends (setup_s);
  3. 0.5 s later open the window: SIGUSR1 to every wbamd (each writes
     a registry "snapshot" line) and read /proc of all eight processes;
  4. close it `measure_s` later the same way; the coordinator's own window
     is 0.3 s longer, so it contains this one;
  5. wait for the coordinator's verdict and for every process to exit.

Operations completed in the window are counted from the replicas' own
output: the delivered count in each leader's snapshots cuts the window's
slice out of its delivery sequence, and the ids in the union of the two
slices are the window's operations. The same sequences feed the delivery
check.
"""

import json
import os
import random
import signal
import subprocess
import time

import check
import procfs
import spans

GROUPS = 2
GROUP_SIZE = 3
REPLICAS = GROUPS * GROUP_SIZE
DRIVER = REPLICAS
LEADERS = [g * GROUP_SIZE for g in range(GROUPS)]
SESSIONS = 32
KV_FLAGS = ["--workload=kv", "--kv-keys=1000", "--kv-theta=0.99",
            "--kv-read-pct=50", "--kv-cross-pct=10"]
CROSS_SHARE = 0.10
WARMUP_S = 0.5
COORDINATOR_SLACK_S = 0.3


class RoundFailed(Exception):
    pass


def topology_text(base_port):
    lines = ["wbam-topology v1", f"groups {GROUPS}",
             f"group_size {GROUP_SIZE}", "clients 2", "staggered_leaders 0",
             "regions 1"]
    for p in range(REPLICAS + 2):
        lines.append(f"node {p} region 0 addr 127.0.0.1:{base_port + p}")
    return "\n".join(lines) + "\n"


class DumpReader:
    """The "snapshot" lines of one process's --metrics-dump file."""

    def __init__(self, path):
        self.path = path
        self.snapshots = []
        self._offset = 0
        self._partial = ""

    def poll(self):
        if not os.path.exists(self.path):
            return len(self.snapshots)
        with open(self.path) as f:
            f.seek(self._offset)
            text = f.read()
            self._offset = f.tell()
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        for line in lines:
            record = json.loads(line)
            if record["kind"] == "snapshot":
                self.snapshots.append(record["metrics"])
        return len(self.snapshots)


def wait_for(predicate, timeout_s, what, poll_s=0.002):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise RoundFailed(f"timed out waiting for {what}")
        time.sleep(poll_s)


def delivered(snapshot, proto):
    h = snapshot["histograms"].get(f"stage/{proto}/delivered")
    return h["count"] if h else 0


class Cluster:
    def __init__(self, bins, workdir, proto, wal, seed, measure_s, trace):
        self.bins = bins
        self.dir = workdir
        self.proto = proto
        self.wal = wal
        self.seed = seed
        self.measure_s = measure_s
        self.trace = trace
        self.nodes = []
        self.ctl = None
        self.dumps = [DumpReader(os.path.join(workdir, f"metrics_p{p}.jsonl"))
                      for p in range(REPLICAS + 1)]

    def path(self, name):
        return os.path.join(self.dir, name)

    def launch(self, base_port):
        topo = self.path("cluster.topo")
        with open(topo, "w") as f:
            f.write(topology_text(base_port))
        epoch = time.monotonic_ns()
        run_ms = int((WARMUP_S + self.measure_s) * 1000) + 60_000
        wal_dir = self.path("wal")
        if self.wal:
            os.makedirs(wal_dir)
        for p in range(REPLICAS + 1):
            cmd = [os.path.join(self.bins, "wbamd"), f"--pid={p}", "--bench",
                   f"--topology={topo}", f"--epoch-ns={epoch}",
                   f"--run-ms={run_ms}", f"--metrics-dump={self.dumps[p].path}",
                   "--metrics-interval-ms=3600000"]
            if self.trace:
                cmd = [os.path.join(self.bins, "perfbench_node"),
                       f"--spans={self.path(f'spans_p{p}.bin')}",
                       f"--windows={self.path(f'windows_p{p}.jsonl')}"] + \
                    cmd[1:]
            if p < REPLICAS:
                cmd.append(f"--out={self.path(f'replica_{p}.txt')}")
                if self.wal:
                    cmd += [f"--wal-dir={wal_dir}", "--wal-sync=off"]
            with open(self.path(f"node_{p}.log"), "w") as log:
                self.nodes.append(subprocess.Popen(
                    cmd, stdout=log, stderr=subprocess.STDOUT))
        ctl = [os.path.join(self.bins, "wbamctl"), "run",
               f"--topology={topo}", f"--epoch-ns={epoch}",
               f"--proto={self.proto}", f"--sessions={SESSIONS}",
               f"--warmup-ms={int(WARMUP_S * 1000)}",
               f"--measure-ms="
               f"{int((self.measure_s + COORDINATOR_SLACK_S) * 1000)}",
               f"--deadline-ms={run_ms}", f"--seed={self.seed}",
               f"--out={self.path('fig.json')}"] + KV_FLAGS
        with open(self.path("wbamctl.log"), "w") as log:
            self.ctl = subprocess.Popen(ctl, stdout=log,
                                        stderr=subprocess.STDOUT)

    def pids(self):
        return [n.pid for n in self.nodes] + [self.ctl.pid]

    def check_alive(self):
        for p, n in enumerate(self.nodes):
            if n.poll() is not None:
                raise RoundFailed(f"process p{p} exited early "
                                  f"({n.returncode})")

    def snapshot_all(self):
        """Signals every wbamd, reads /proc; returns the ledger entry."""
        index = [d.poll() for d in self.dumps]
        t = time.monotonic_ns()
        for n in self.nodes:
            n.send_signal(signal.SIGUSR1)
        proc = {p: procfs.read_process(pid)
                for p, pid in enumerate(self.pids())}
        cpu_times = procfs.read_cpu_times()
        wait_for(lambda: all(d.poll() > i for d, i in zip(self.dumps, index)),
                 5, "registry snapshots")
        return {"t": t, "index": index, "proc": proc, "cpu_times": cpu_times}

    def wait_load_started(self):
        """Returns the time replica 0's registry is first seen to hold a
        delivery: the end of set-up. The probe is one SIGUSR1 at a time;
        wbamd answers at the end of its current 10 ms slice."""
        def handlers_installed():
            self.check_alive()
            return all(procfs.catches_sigusr1(n.pid) for n in self.nodes)

        wait_for(handlers_installed, 20,
                 "every process to install its SIGUSR1 handler",
                 poll_s=0.001)
        first = self.dumps[0]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            self.check_alive()
            n = first.poll()
            self.nodes[0].send_signal(signal.SIGUSR1)
            wait_for(lambda: first.poll() > n, 5, "replica 0's snapshot",
                     poll_s=0.001)
            if delivered(first.snapshots[-1], self.proto) > 0:
                return time.monotonic_ns()
        raise RoundFailed("the load never started")

    def stop(self):
        for proc in self.nodes + [self.ctl]:
            if proc is not None and proc.poll() is None:
                proc.kill()
        for proc in self.nodes + [self.ctl]:
            if proc is not None:
                proc.wait()

    def finish(self):
        try:
            status = self.ctl.wait(timeout=60)
            if status != 0:
                with open(self.path("wbamctl.log")) as f:
                    last = (f.read().strip().splitlines() or [""])[-1]
                raise RoundFailed(f"wbamctl exited {status}: {last}")
            for p, n in enumerate(self.nodes):
                if n.wait(timeout=30) != 0:
                    raise RoundFailed(f"process p{p} exited {n.returncode}")
        except subprocess.TimeoutExpired:
            raise RoundFailed("processes did not exit")


def run_round(bins, workdir, proto, wal, seed, measure_s, trace):
    """One cluster, one window. Returns the round's raw figures."""
    for attempt in range(3):
        os.makedirs(workdir)
        cluster = Cluster(bins, workdir, proto, wal, seed, measure_s, trace)
        t_launch = time.monotonic_ns()
        try:
            # A random sub-32768 base port, as scripts/wbam_deploy.py
            # picks; a collision shows as an early exit and is retried.
            cluster.launch(20000 + random.randrange(12000))
            started = cluster.wait_load_started()
            time.sleep(max(0.0, started / 1e9 + WARMUP_S - time.monotonic()))
            cluster.check_alive()
            opened = cluster.snapshot_all()
            time.sleep(max(0.0, opened["t"] / 1e9 + measure_s
                           - time.monotonic()))
            closed = cluster.snapshot_all()
            cluster.finish()
        except RoundFailed as e:
            cluster.stop()
            if "exited early" in str(e) and attempt < 2:
                os.rename(workdir, f"{workdir}-failed{attempt}")
                continue
            raise
        except BaseException:
            cluster.stop()
            raise
        return collect(cluster, started - t_launch, opened, closed)


def counter_deltas(cluster, opened, closed, p):
    before = cluster.dumps[p].snapshots[opened["index"][p]]["counters"]
    after = cluster.dumps[p].snapshots[closed["index"][p]]["counters"]
    return {k: v - before.get(k, 0) for k, v in after.items()}


def collect(cluster, setup_ns, opened, closed):
    proto = cluster.proto
    sequences = {p: check.read_ids(cluster.path(f"replica_{p}.txt"))
                 for p in range(REPLICAS)}
    window_ids = set()
    for leader in LEADERS:
        lo = delivered(cluster.dumps[leader].snapshots[opened["index"][leader]],
                       proto)
        hi = delivered(cluster.dumps[leader].snapshots[closed["index"][leader]],
                       proto)
        if hi > len(sequences[leader]):
            raise RoundFailed(f"leader p{leader} reported {hi} deliveries "
                              f"but its sequence holds "
                              f"{len(sequences[leader])}")
        window_ids.update(sequences[leader][lo:hi])
    groups = {g: [sequences[p] for p in range(g * GROUP_SIZE,
                                              (g + 1) * GROUP_SIZE)]
              for g in range(GROUPS)}
    ok, why, share = check.check(groups, max_cross_share=CROSS_SHARE)

    with open(cluster.path("fig.json")) as f:
        fig = json.load(f)
    point = fig["series"][0]["points"][0]
    proc = {p: {k: closed["proc"][p][k] - opened["proc"][p][k]
                for k in ("cpu_ns", "loop_cpu_ns", "nvcsw", "wchar")}
            for p in closed["proc"]}
    counters = {}
    for p in range(REPLICAS + 1):
        for k, v in counter_deltas(cluster, opened, closed, p).items():
            counters[k] = counters.get(k, 0) + v
    r = {
        "ok": ok,
        "why": why,
        "cross_share": share,
        "ops": len(window_ids),
        "window_s": (closed["t"] - opened["t"]) / 1e9,
        "setup_s": setup_ns / 1e9,
        "p50_ms": point["p50_ms"],
        "p99_ms": point["p99_ms"],
        "samples": point["ops"],
        "cpu_ns": sum(v["cpu_ns"] for v in proc.values()),
        "leader_cpu_ns": sum(proc[p]["cpu_ns"] for p in LEADERS),
        "follower_cpu_ns": sum(proc[p]["cpu_ns"] for p in range(REPLICAS)
                               if p not in LEADERS),
        "driver_cpu_ns": proc[DRIVER]["cpu_ns"],
        "nvcsw": sum(v["nvcsw"] for v in proc.values()),
        "wchar": sum(v["wchar"] for v in proc.values()),
        "peak_rss_kb": max(closed["proc"][p]["hwm_kb"]
                           for p in range(REPLICAS)),
        "leader_rss_growth_kb": sum(
            closed["proc"][p]["rss_kb"] - opened["proc"][p]["rss_kb"]
            for p in LEADERS) / len(LEADERS),
        "loop_threads": max(opened["proc"][p]["threads"] - 1
                            for p in range(REPLICAS + 2)),
        "processes": len(opened["proc"]),
        "steal_pct": procfs.steal_pct(opened["cpu_times"],
                                      closed["cpu_times"]),
        "counters": counters,
    }
    if cluster.trace:
        r.update(collect_trace(cluster, opened, closed, proc))
    return r


def collect_trace(cluster, opened, closed, proc):
    """Span self times and window-scoped stage histograms of a traced
    round."""
    handler = {}
    inner = {}
    stages = {}
    loop_cpu = outside_send = 0
    for p in range(REPLICAS + 1):
        # The node's own snapshot pair for this window is its windows line
        # number opened["index"][p].
        with open(cluster.path(f"windows_p{p}.jsonl")) as f:
            window = json.loads(f.readlines()[opened["index"][p]])
        t0, t1 = window["t_open_ns"], window["t_close_ns"]
        logs = spans.read(cluster.path(f"spans_p{p}.bin"))
        handler[p] = spans.window_ns(logs, p, "handler", t0, t1)
        inner[p] = {k: spans.window_ns(logs, p, k, t0, t1)
                    for k in ("send", "apply", "wal_commit")}
        loop_cpu += proc[p]["loop_cpu_ns"]
        outside_send += handler[p] - inner[p]["send"]
        if p < REPLICAS:
            for name, buckets in window["histograms"].items():
                merged = stages.setdefault(name, {})
                for ub, n in buckets:
                    merged[ub] = merged.get(ub, 0) + n

    def self_ns(p):
        return handler[p] - sum(inner[p].values())

    return {
        "handler_self_ns": sum(self_ns(p) for p in range(REPLICAS)),
        "leader_handler_self_ns": sum(self_ns(p) for p in LEADERS),
        "driver_handler_ns": handler[DRIVER],
        "apply_ns": sum(inner[p]["apply"] for p in range(REPLICAS)),
        "wal_commit_ns": sum(inner[p]["wal_commit"] for p in range(REPLICAS)),
        # Sends are the transport's entry: their spans count toward it, so
        # over replicas and driver, handler self + apply + WAL commit +
        # transport self add up to the loop threads' CPU.
        "transport_self_ns": loop_cpu - outside_send,
        "stage_buckets": stages,
    }
