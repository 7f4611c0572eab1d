"""Measurement plumbing shared by the workloads and the layer probes.

Everything here observes the system from outside: wall and CPU clocks,
``/proc`` for the server processes the process backend spawns, and a
span recorder wrapped around the harness's own calls into the public
API.  Nothing reaches into ``src/``.
"""

from __future__ import annotations

import json
import os
import resource
import struct
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from statistics import median  # noqa: F401  (re-exported beside percentile)

ROOT = Path(__file__).resolve().parent.parent

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], p: float) -> float:
    """The *p*-quantile (0..1) of *values* by nearest rank."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p))]


# -- processes ---------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the parenthesised command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def _children() -> list[tuple[int, list[str]]]:
    """``(pid, stat fields)`` of this process's live direct children."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # Field 0 is the state, 1 the parent pid; a zombie is already
        # accounted for in RUSAGE_CHILDREN once reaped, so skip it here.
        if fields and int(fields[1]) == me and fields[0] != "Z":
            out.append((int(entry), fields))
    return out


def child_pids() -> list[int]:
    """Live direct children of this process (the spawned memo servers)."""
    return [pid for pid, _ in _children()]


def system_cpu_s() -> float:
    """CPU seconds used so far by this process and every server it spawned.

    Live children are read from ``/proc``; children that were killed and
    reaped have moved into ``RUSAGE_CHILDREN``.  A difference of two
    readings is therefore the CPU the whole system spent in between,
    whichever backend runs it and whoever died on the way.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + reaped.ru_utime + reaped.ru_stime
    for _, fields in _children():
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def pin_to_one_cpu() -> None:
    """Confine this process, and every server it will spawn, to one CPU.

    A single closed-loop client keeps one request in flight, so the work
    is a chain of hand-offs (client → local server → owner → backup →
    back), not parallel.  On a small VM a hand-off that crosses vCPUs
    pays a hypervisor wake-up of tens of microseconds, and where the
    kernel places the threads and processes flips between runs: the same
    code read 0.19 ms or 0.60 ms per in-process acked put, and the
    process-backend workloads ran at half the speed with twice the
    spread.  One CPU removes that coin toss; children inherit the mask.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest high-water resident set among live children, MiB."""
    peak = 0.0
    for pid in child_pids():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


# -- machine speed -----------------------------------------------------------------


def _kernel() -> int:
    """A fixed slice of interpreter work shaped like the memo path's:
    integer arithmetic and byte appends (the codecs), then float and list
    allocation, a C call that writes memory and dictionary churn (the
    transferable wire format, the stores).  Standard library only, so no
    change to D-Memo can make the yardstick itself faster or slower."""
    acc = 0
    out = bytearray()
    for i in range(16_000):
        acc += i * i % 7
        out.append(i & 0xFF)
        if not i & 1023:
            out = bytearray()
    table = {}
    pack = struct.pack
    for i in range(800):
        acc += i * i % 7
        row = [acc + 0.5 * j for j in range(16)]
        table[i & 255] = (pack("<16d", *row), row)
    return acc


class SpeedGauge:
    """Samples how fast this CPU is running, to take that out of the timings.

    The reference box is a shared 2-vCPU VM whose raw speed is not a
    constant: the kernel above, alone on an otherwise idle VM, needs 2.3
    to 6.8 ms of CPU depending on what the host's other tenants are doing,
    slowing for seconds at a time and drifting over minutes.  D-Memo on
    loopback is processor-bound, so every timing follows that wander and
    identical runs read 10-20 % apart.  The gauge runs the kernel beside
    every timed interval (in thread CPU time, so it is not fooled by the
    servers it shares the CPU with) and each interval is then expressed
    at the reference speed: ``measured / slowdown``, where ``slowdown``
    is the kernel's time around that interval over its reference time.
    Raw, uncorrected values are kept in every run's detail record.
    """

    #: Kernel CPU seconds at the reference box's usual speed; it fixes the
    #: scale of the corrected numbers, not their steadiness.
    REFERENCE_S = 0.0035

    def __init__(self) -> None:
        #: ``(perf_counter time, kernel CPU seconds)``, in time order.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Run the kernel twice now and keep the faster pass."""
        a = time.thread_time()
        _kernel()
        b = time.thread_time()
        _kernel()
        c = time.thread_time()
        self.samples.append((time.perf_counter(), min(b - a, c - b)))

    def slowdown(self, start: float, end: float) -> float:
        """Kernel time around ``[start, end]`` over the reference time.

        Averages the samples taken inside the interval together with the
        last one before it and the first one after it.
        """
        times = [t for t, _ in self.samples]
        first = max(bisect_left(times, start) - 1, 0)
        picked = [k for _, k in self.samples[first : bisect_right(times, end) + 1]]
        return sum(picked) / len(picked) / self.REFERENCE_S


# -- spans -------------------------------------------------------------------------


class Tracer:
    """Times the harness's calls into the public API; keeps spans when on.

    Every call goes through :meth:`call` whether tracing is on or off, so
    the latency a workload reports and the span it records come from the
    same two clock reads.  A span is ``(name, start, end, parent, op)``:
    *parent* names the workload-level span (one iteration, one task) the
    call belongs to and *op* is that iteration's index, shared by all
    spans of one request.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, str | None, int]] = []

    def call(self, name: str, parent: str, op: int, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return ``(result, start, end)``."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.enabled:
                self.spans.append((name, start, end, parent, op))
        return result, start, end

    def record(
        self, name: str, parent: str | None, op: int, start: float, end: float
    ) -> None:
        """Record a span timed by the caller; *parent* None marks a
        workload-level span (the parent of the calls inside it)."""
        if self.enabled:
            self.spans.append((name, start, end, parent, op))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its child spans."""
        covered: dict[tuple[str, int], float] = {}
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                key = (parent, op)
                covered[key] = covered.get(key, 0.0) + (end - start)
        out: dict[str, float] = {}
        for name, start, end, parent, op in self.spans:
            own = end - start
            if parent is None:
                own -= covered.get((name, op), 0.0)
            out[name] = out.get(name, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
