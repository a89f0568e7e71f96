"""Readings of a process and of the machine from /proc, taken from outside
the program at the open and the close of a measurement window."""

import os
import signal


def _fields(path):
    out = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.partition(":")
            out[key] = value.split()
    return out


def read_process(pid):
    """CPU (ns, from schedstat) of the whole process and of its threads
    other than the main one, voluntary context switches, bytes written
    (wchar), resident set and its peak (kB), thread count."""
    cpu = loop_cpu = switches = 0
    tasks = os.listdir(f"/proc/{pid}/task")
    for tid in tasks:
        with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
            ns = int(f.read().split()[0])
        cpu += ns
        if tid != str(pid):
            loop_cpu += ns
        switches += int(
            _fields(f"/proc/{pid}/task/{tid}/status")
            ["voluntary_ctxt_switches"][0])
    status = _fields(f"/proc/{pid}/status")
    return {
        "cpu_ns": cpu,
        "loop_cpu_ns": loop_cpu,
        "threads": len(tasks),
        "nvcsw": switches,
        "wchar": int(_fields(f"/proc/{pid}/io")["wchar"][0]),
        "rss_kb": int(status["VmRSS"][0]),
        "hwm_kb": int(status["VmHWM"][0]),
    }


def catches_sigusr1(pid):
    """True once the process has installed a SIGUSR1 handler (before that,
    the signal would end it)."""
    caught = int(_fields(f"/proc/{pid}/status")["SigCgt"][0], 16)
    return bool(caught & (1 << (signal.SIGUSR1 - 1)))


def read_cpu_times():
    """(steal, total) jiffies since boot of the CPUs this process may use."""
    mine = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    steal = total = 0
    with open("/proc/stat") as f:
        for line in f:
            name, *values = line.split()
            if name in mine:
                # user nice system idle iowait irq softirq steal [guest
                # guest_nice]: guest time is already counted in user.
                values = [int(v) for v in values[:8]]
                steal += values[7]
                total += sum(values)
    return steal, total


def steal_pct(before, after):
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def cores():
    return len(os.sched_getaffinity(0))
