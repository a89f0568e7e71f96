"""Reader of the span files the traced programs write (src/tracing.hpp):
per (process, kind), the end times and durations of its spans, in end-time
order, so a window is cut out with two binary searches."""

import array
import bisect
import struct

KINDS = ("handler", "send", "apply", "wal_commit")


def read(path):
    """{(pid, kind name): (ends, durations)} in nanoseconds."""
    logs = {}
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos < len(data):
        pid, kind, n = struct.unpack_from("<QQQ", data, pos)
        pos += 24
        ends = array.array("q", data[pos:pos + 8 * n])
        pos += 8 * n
        durs = array.array("q", data[pos:pos + 8 * n])
        pos += 8 * n
        logs[(pid, KINDS[kind])] = (ends, durs)
    return logs


def window_ns(logs, pid, kind, t_open, t_close):
    """Total duration of the spans of `pid` and `kind` that ended in the
    window."""
    log = logs.get((pid, kind))
    if log is None:
        return 0
    ends, durs = log
    lo = bisect.bisect_left(ends, t_open)
    hi = bisect.bisect_right(ends, t_close)
    return sum(durs[lo:hi])
