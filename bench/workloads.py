"""The four closed-loop workloads and the common tail every one ends with.

Each workload does a *fixed* amount of work sized so that its timed
window lasts about ``--seconds`` at seed speed on the 2-core reference
box; the seed shuffles key order and payload values, never the op counts
or the fault schedule.  Load comes from one client thread (plus one
worker thread on ``farm`` and a sleeping fault controller on ``crash``),
never more than ``nproc`` busy threads, and every client waits for a
reply before its next request: closed loops throughout.

A benchmark run must report every end-to-end metric on every workload,
so after its window each workload runs the same short *tail* on its
still-live cluster — acked ``put`` → consuming ``get`` iterations and
kill/restart cycles — and takes from it only the metrics its window does
not measure natively (see the table in ``bench/README.md``).
"""

from __future__ import annotations

import gc
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench.harness import (
    SpeedGauge,
    Tracer,
    median,
    peak_rss_mb,
    percentile,
    system_cpu_s,
)
from repro import NIL, Cluster, MemoError, system_default_adf
from repro.core.keys import Key, Symbol
from repro.durability.config import DurabilityConfig

APP = "bench"

#: Op counts below are sized for a window of this many seconds.
REF_SECONDS = 16.0

WORKLOADS = ("ingest", "acked_rw", "farm", "crash")

#: Window-delta counters reported per 1 000 ops in the layer table.
WINDOW_COUNTERS = (
    "durability.wal_records",
    "durability.fsyncs",
    "durability.fsync_ms",
    "durability.snapshots_written",
    "memo.forwards_out",
    "memo.pipelined_batches",
    "memo.push_frames",
    "memo.waiters_parked",
    "memo.replications_out",
    "cache.threads_created",
)


COUNTER_UNITS = {"durability.fsync_ms": "ms/kop", "link.bytes": "B/kop"}


@dataclass
class RunContext:
    seed: int
    #: ``--seconds / REF_SECONDS``: multiplies every op count.
    scale: float
    tracer: Tracer
    #: Scratch directory (WAL data) inside the checkout; removed by the runner.
    tmp_dir: Path
    gauge: SpeedGauge = field(default_factory=SpeedGauge)

    def at_reference_speed(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the reference speed."""
        return (end - start) / self.gauge.slowdown(start, end)

    def count(self, n: int, floor: int = 1) -> int:
        return max(floor, round(n * self.scale))

    def warm(self, n: int, floor: int = 1) -> int:
        """Warm-up/preload sizes are fixed, shrinking only for smoke runs."""
        return max(floor, round(n * min(1.0, self.scale)))


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    #: Op counts, segment rates, p99s, fault timings: explains an outlier.
    detail: dict = field(default_factory=dict)
    #: Layer-table entries only this run can supply (window deltas, crash).
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: What an acked put crosses on this workload's cluster, for
    #: :func:`bench.layers.attributed_put_ack_us`.
    put_path: dict = field(default_factory=dict)
    #: The put-ack p50 as timed, for comparison with the uncorrected probes.
    uncorrected_put_ack_ms: float = 0.0


# -- shared pieces -----------------------------------------------------------------


def _cluster_counters(cluster: Cluster) -> dict[str, dict[str, float]]:
    """Per-host counters of interest, plus fabric traffic under ``"links"``."""
    out = {
        host: {k: float(v) for k, v in stats.items() if k in WINDOW_COUNTERS}
        for host, stats in cluster.stats().items()
    }
    metrics = cluster.metrics()
    out["links"] = {
        "link.bytes": float(sum(metrics.link_bytes.values())),
        "link.messages": float(sum(metrics.link_messages.values())),
    }
    return out


def _counter_deltas(
    opened: dict[str, dict[str, float]],
    closed: dict[str, dict[str, float]],
    ops: int,
) -> dict[str, tuple[float, str]]:
    """Window deltas per 1 000 ops, summed over hosts.

    A host restarted inside the window comes back with zeroed counters;
    its delta is then what it counted since the restart.
    """
    totals: dict[str, float] = {}
    for host, after in closed.items():
        before = opened.get(host, {})
        for name, value in after.items():
            delta = value - before.get(name, 0.0)
            totals[name] = totals.get(name, 0.0) + (value if delta < 0 else delta)
    return {
        f"{name}_per_kop": (total * 1000.0 / ops, COUNTER_UNITS.get(name, "1/kop"))
        for name, total in totals.items()
    }


class _Window:
    """Opens the timed window: collect garbage once, then leave GC on."""

    def __init__(self, ctx: RunContext, cluster: Cluster) -> None:
        self.ctx = ctx
        self.cluster = cluster
        self.counters_open: dict = {}

    def open(self) -> None:
        gc.collect()
        if self.ctx.tracer.enabled:
            self.counters_open = _cluster_counters(self.cluster)

    def layer(self, ops: int) -> dict[str, tuple[float, str]]:
        if not self.ctx.tracer.enabled:
            return {}
        return _counter_deltas(
            self.counters_open, _cluster_counters(self.cluster), ops
        )


#: Segments a timed window is cut into (about half a second each).
SEGMENTS = 32


def _split(total: int, parts: int) -> list[int]:
    """*total* split into at most *parts* near-equal positive sizes."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class Segments:
    """A timed loop cut into short segments, reported as the median of them.

    Each segment yields its own rate, CPU cost per op and latency
    quantiles; the machine's speed is sampled at every cut, and each
    segment's timings are put at the reference speed by the slowdown
    measured on either side of it (see :class:`~bench.harness.SpeedGauge`).
    A metric is the median of its per-segment values, so a stall that
    hits a few segments does not move it.  The uncorrected medians and
    the whole-window rate stay in the detail output.
    """

    def __init__(self, gauge: SpeedGauge) -> None:
        self.gauge = gauge
        self.rates: list[float] = []
        self.cpus: list[float] = []
        self.slowdowns: list[float] = []
        self.lat: dict[str, list[list[float]]] = {}
        self.wall_s = 0.0
        self.ops = 0

    def start(self) -> None:
        """Open the next segment."""
        self.gauge.sample()
        self._cpu0, self._t0 = system_cpu_s(), time.perf_counter()

    def cut(self, ops: int, lat: dict[str, list[float]]) -> None:
        """Close the open segment of *ops* operations and open the next.

        *lat* is ``{name: [latency seconds, ...]}`` for the calls timed
        inside it (possibly empty).
        """
        t1, cpu1 = time.perf_counter(), system_cpu_s()
        self.gauge.sample()
        self.rates.append(ops / (t1 - self._t0))
        self.cpus.append((cpu1 - self._cpu0) * 1e6 / ops)
        self.slowdowns.append(self.gauge.slowdown(self._t0, t1))
        self.wall_s += t1 - self._t0
        self.ops += ops
        for name in lat:
            self.lat.setdefault(name, []).append(lat[name])
        # The gauge's own work stays outside every segment.
        self._cpu0, self._t0 = system_cpu_s(), time.perf_counter()

    def run(self, ops: int, body) -> None:
        """Time ``body()`` — *ops* operations, returning *lat* — as one segment."""
        self.start()
        self.cut(ops, body())

    def _factors(self, corrected: bool) -> list[float]:
        return self.slowdowns if corrected else [1.0] * len(self.slowdowns)

    def ops_per_s(self, corrected: bool = True) -> tuple[float, str]:
        return median([r * f for r, f in zip(self.rates, self._factors(corrected))]), "1/s"

    def cpu_ms_per_kop(self, corrected: bool = True) -> tuple[float, str]:
        return median([c / f for c, f in zip(self.cpus, self._factors(corrected))]), "ms"

    def quantile_ms(self, name: str, p: float, corrected: bool = True) -> tuple[float, str]:
        """Median over segments of the segment's *p*-quantile of *name*, ms."""
        pairs = zip(self.lat[name], self._factors(corrected))
        return median([percentile(seg, p) * 1000.0 / f for seg, f in pairs if seg]), "ms"

    def all_ms(self, name: str, p: float) -> float:
        """The uncorrected *p*-quantile over every sample (detail output)."""
        return percentile([v for seg in self.lat[name] for v in seg], p) * 1000.0

    def latency_metrics(self) -> dict[str, tuple[float, str]]:
        """The five call-latency metrics from ``put``/``get``/``turn`` samples."""
        return {
            "put_ack_p50_ms": self.quantile_ms("put", 0.5),
            "put_ack_p90_ms": self.quantile_ms("put", 0.9),
            "get_p50_ms": self.quantile_ms("get", 0.5),
            "turnaround_p50_ms": self.quantile_ms("turn", 0.5),
            "turnaround_p90_ms": self.quantile_ms("turn", 0.9),
        }

    def detail(self) -> dict:
        """Uncorrected values and the per-segment series behind the medians."""
        return {
            "window_s": self.wall_s,
            "whole_window_ops_per_s": self.ops / self.wall_s,
            "uncorrected_ops_per_s": self.ops_per_s(corrected=False)[0],
            "uncorrected_cpu_ms_per_kop": self.cpu_ms_per_kop(corrected=False)[0],
            "uncorrected_p50_ms": {
                name: self.quantile_ms(name, 0.5, corrected=False)[0] for name in self.lat
            },
            "uncorrected_p90_ms": {
                name: self.quantile_ms(name, 0.9, corrected=False)[0] for name in self.lat
            },
            "median_slowdown": median(self.slowdowns),
            "segment_slowdowns": self.slowdowns,
            "segment_rates_per_s": self.rates,
            "segment_cpu_ms_per_kop": self.cpus,
            "segment_p50_ms": {
                name: [percentile(seg, 0.5) * 1000.0 for seg in segs if seg]
                for name, segs in self.lat.items()
            },
            "segment_p90_ms": {
                name: [percentile(seg, 0.9) * 1000.0 for seg in segs if seg]
                for name, segs in self.lat.items()
            },
        }


def tail_rw(ctx: RunContext, memo, iterations: int) -> tuple[Segments, int]:
    """Acked ``put`` → consuming ``get`` on 64 folders of the live cluster.

    Returns the per-call latencies (``turn`` is put call → the memo
    consumed back) and how many values came back wrong.
    """
    sym = Symbol("tail")
    rng = random.Random(ctx.seed + 1)
    failed = [0]
    call = ctx.tracer.call
    done = [0]

    def segment(n: int):
        lat: dict[str, list[float]] = {"put": [], "get": [], "turn": []}
        for i in range(done[0], done[0] + n):
            key = Key(sym, (rng.randrange(64),))
            _, a, b = call("Memo.put", "tail.iteration", i, memo.put, key, i, wait=True)
            value, c, d = call("Memo.get", "tail.iteration", i, memo.get, key)
            ctx.tracer.record("tail.iteration", None, i, a, d)
            failed[0] += value != i
            lat["put"].append(b - a)
            lat["get"].append(d - c)
            lat["turn"].append(d - a)
        done[0] += n
        return lat

    tail = Segments(ctx.gauge)
    for n in _split(iterations, 20):
        tail.run(n, lambda: segment(n))
    return tail, failed[0]


def tail_recover(
    ctx: RunContext, cluster: Cluster, host: str, groups: int, per_group: int
) -> tuple[float, list[float]]:
    """Kill *host* and time ``restart_host`` bringing it back, over and over.

    Cycles come in *groups* with the gauge read between them: many short
    cycles per group in-process (a cycle is under a millisecond), one
    long one on the process backend.  Returns the median over groups of
    the group's median restart at the reference speed, and the raw times.
    """
    ctx.gauge.sample()
    medians, raw = [], []
    for g in range(groups):
        spans = []
        for i in range(per_group):
            op = g * per_group + i
            ctx.tracer.call("Cluster.kill_host", None, op, cluster.kill_host, host)
            _, a, b = ctx.tracer.call(
                "Cluster.restart_host", None, op, cluster.restart_host, host
            )
            spans.append((a, b))
        ctx.gauge.sample()
        slowdown = ctx.gauge.slowdown(spans[0][0], spans[-1][1])
        medians.append(median([b - a for a, b in spans]) / slowdown)
        raw += [b - a for a, b in spans]
    return median(medians), raw


def _wal_config(ctx: RunContext) -> DurabilityConfig:
    return DurabilityConfig(data_dir=str(ctx.tmp_dir / "wal"), fsync="batch")


# -- ingest ------------------------------------------------------------------------


def run_ingest(ctx: RunContext) -> Outcome:
    """Pipelined small-int ingest: rounds of ``put_many`` batches + ``flush``."""
    rng = random.Random(ctx.seed)
    folders, batch = 512, 256
    per_round = ctx.count(11_000, floor=batch)
    warm = ctx.warm(20_000, floor=batch)
    call = ctx.tracer.call

    def items(n: int) -> list[tuple[Key, int]]:
        # A value names its folder (v % folders), so any memo read back
        # can be checked without remembering what was put.
        return [
            (keys[f], f + folders * rng.randrange(64))
            for f in (rng.randrange(folders) for _ in range(n))
        ]

    def ingest(batchable: list, op: int) -> dict:
        t0 = time.perf_counter()
        for j in range(0, len(batchable), batch):
            call("Memo.put_many", "ingest.round", op, memo.put_many,
                 batchable[j : j + batch])
        call("Memo.flush", "ingest.round", op, memo.flush)
        ctx.tracer.record("ingest.round", None, op, t0, time.perf_counter())
        return {}

    ctx.gauge.sample()
    setup_start = time.perf_counter()
    adf = system_default_adf(["a", "b"], app=APP)
    with Cluster(adf, idle_timeout=5.0) as cluster:
        cluster.register()
        memo = cluster.memo_api("a", APP, "ingest")
        sym = Symbol("ing")
        keys = [Key(sym, (f,)) for f in range(folders)]
        ingest(items(warm), -1)
        setup_end = time.perf_counter()

        window = _Window(ctx, cluster)
        window.open()
        rounds = Segments(ctx.gauge)
        for r in range(SEGMENTS):
            todo = items(per_round)  # built outside the round's clock
            rounds.run(per_round, lambda: ingest(todo, r))
        ops = rounds.ops
        layer = window.layer(ops)

        # Nothing was consumed, so every memo must still be resident,
        # and any memo read back must belong to the folder it is in.
        resident = sum(
            v
            for stats in cluster.stats().values()
            for k, v in stats.items()
            if k.startswith("folder.") and k.endswith(".live_memos")
        )
        failed = max(0, warm + ops - resident)
        sample = rng.sample(range(folders), min(64, folders))
        for f in sample:
            failed += memo.get_copy(keys[f]) % folders != f

        tail, tail_failed = tail_rw(ctx, memo, ctx.count(6000, floor=20))
        recover, recover_raw = tail_recover(ctx, cluster, "b", 12, 40)
        memo.close()

    metrics = {
        "setup_s": (ctx.at_reference_speed(setup_start, setup_end), "s"),
        "ops_per_s": rounds.ops_per_s(),
        "cpu_ms_per_kop": rounds.cpu_ms_per_kop(),
        **tail.latency_metrics(),
        "recover_s": (recover, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return Outcome(
        metrics,
        attempted=ops + len(sample) + 2 * tail.ops,
        failed=failed + tail_failed,
        detail={
            "ops": ops,
            "warmup_ops": warm,
            "resident_memos": resident,
            "put_ack_p99_ms": tail.all_ms("put", 0.99),
            "uncorrected_setup_s": setup_end - setup_start,
            "uncorrected_recover_s": median(recover_raw),
            "tail": tail.detail(),
            **rounds.detail(),
        },
        layer=layer,
        put_path={"tcp": False, "forward_share": 1 / 2, "durable_replicated": False},
        uncorrected_put_ack_ms=tail.quantile_ms("put", 0.5, corrected=False)[0],
    )


# -- acked_rw ----------------------------------------------------------------------


def run_acked_rw(ctx: RunContext) -> Outcome:
    """Replicated durable ack beside examining and consuming reads."""
    rng = random.Random(ctx.seed)
    folders = 256
    iterations = ctx.count(8000, floor=8)
    warm = ctx.warm(500, floor=4)
    call = ctx.tracer.call
    failures = [0]

    def loop(n: int, base: int) -> dict:
        lat: dict[str, list[float]] = {"put": [], "get": [], "turn": []}
        for i in range(base, base + n):
            key, value = keys[rng.randrange(folders)], rng.randrange(1 << 30)
            try:
                _, a, b = call("Memo.put", "acked_rw.iteration", i,
                               memo.put, key, value, wait=True)
                copy, _, _ = call("Memo.get_copy", "acked_rw.iteration", i,
                                  memo.get_copy, key)
                got, c, d = call("Memo.get", "acked_rw.iteration", i, memo.get, key)
            except MemoError:
                failures[0] += 3
                continue
            ctx.tracer.record("acked_rw.iteration", None, i, a, d)
            failures[0] += (copy != value) + (got != value)
            lat["put"].append(b - a)
            lat["get"].append(d - c)
            lat["turn"].append(d - a)
        return lat

    ctx.gauge.sample()
    setup_start = time.perf_counter()
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=2)
    with Cluster(
        adf, backend="process", transport_kind="tcp", durability=_wal_config(ctx)
    ) as cluster:
        cluster.register()
        memo = cluster.memo_api("h0", APP, "rw")
        sym = Symbol("rw")
        keys = [Key(sym, (f,)) for f in range(folders)]
        loop(warm, -warm)
        setup_end = time.perf_counter()

        window = _Window(ctx, cluster)
        window.open()
        segments, base = Segments(ctx.gauge), 0
        for n in _split(iterations, SEGMENTS):
            segments.run(3 * n, lambda: loop(n, base))
            base += n
        layer = window.layer(segments.ops)

        recover, recover_raw = tail_recover(ctx, cluster, "h1", 5, 1)
        # The restarted host must serve again: one more checked iteration.
        loop(1, iterations)
        memo.close()

    metrics = {
        "setup_s": (ctx.at_reference_speed(setup_start, setup_end), "s"),
        "ops_per_s": segments.ops_per_s(),
        "cpu_ms_per_kop": segments.cpu_ms_per_kop(),
        **segments.latency_metrics(),
        "recover_s": (recover, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return Outcome(
        metrics,
        attempted=3 * (warm + iterations + 1),
        failed=failures[0],
        detail={
            "ops": segments.ops,
            "warmup_ops": 3 * warm,
            "put_ack_p99_ms": segments.all_ms("put", 0.99),
            "uncorrected_setup_s": setup_end - setup_start,
            "uncorrected_recover_s": median(recover_raw),
            "recover_s_each": recover_raw,
            **segments.detail(),
        },
        layer=layer,
        put_path={"tcp": True, "forward_share": 2 / 3, "durable_replicated": True},
        uncorrected_put_ack_ms=segments.quantile_ms("put", 0.5, corrected=False)[0],
    )


# -- farm --------------------------------------------------------------------------

ROW = 256
OUTSTANDING = 8
GET_TIMEOUT = 30.0


def run_farm(ctx: RunContext) -> Outcome:
    """The job-jar idiom: a master farms row tasks to one worker."""
    rng = random.Random(ctx.seed)
    tasks = ctx.count(7000, floor=OUTSTANDING)
    warm = ctx.warm(500, floor=OUTSTANDING)
    call = ctx.tracer.call
    jar, results = Key(Symbol("jar")), Key(Symbol("results"))
    worker_error: list[BaseException] = []
    bad = [0]

    def work() -> None:
        try:
            n = 0
            while True:
                task, a, _ = call("Memo.get", "farm.work", n, worker.get, jar)
                if task is None:
                    return
                task_id, start = task
                row = [start + 0.5 * j for j in range(ROW)]
                _, _, b = call("Memo.put", "farm.work", n,
                               worker.put, results, (task_id, row))
                ctx.tracer.record("farm.work", None, n, a, b)
                n += 1
        except BaseException as exc:  # surfaced by the master after join
            worker_error.append(exc)

    def farm(n: int, base: int, segments: Segments | None) -> None:
        """Farm task ids ``base..base+n``, eight outstanding at a time.

        One continuous loop — the pipeline never drains — cut into
        segments at every ``n / SEGMENTS`` completions.
        """
        sent: dict[int, tuple[float, float]] = {}
        turnaround: list[float] = []
        cuts = iter(_split(n, SEGMENTS))
        until_cut = next(cuts)
        next_id = done = 0
        if segments:
            segments.start()
        while done < n:
            while len(sent) < OUTSTANDING and next_id < n:
                start = rng.random() * 1000.0
                _, a, _ = call("Memo.put", "farm.task", base + next_id,
                               master.put, jar, (base + next_id, start))
                sent[base + next_id] = (a, start)
                next_id += 1
            g0 = time.perf_counter()
            task_id, row = master.get_async(results).wait(GET_TIMEOUT)
            b = time.perf_counter()
            ctx.tracer.record("Memo.get", "farm.task", task_id, g0, b)
            entry = sent.pop(task_id, None)
            done += 1
            if entry is None:  # unknown or duplicate task id
                bad[0] += 1
            else:
                a, start = entry
                ctx.tracer.record("farm.task", None, task_id, a, b)
                bad[0] += not (
                    len(row) == ROW
                    and row[0] == start
                    and row[-1] == start + 0.5 * (ROW - 1)
                )
                turnaround.append(b - a)
            until_cut -= 1
            if until_cut == 0 and segments:
                segments.cut(len(turnaround), {"turn": turnaround})
                turnaround = []
                until_cut = next(cuts, 0)

    ctx.gauge.sample()
    setup_start = time.perf_counter()
    adf = system_default_adf(["h0", "h1", "h2"], app=APP)
    with Cluster(adf, idle_timeout=5.0) as cluster:
        cluster.register()
        master = cluster.memo_api("h0", APP, "master")
        worker = cluster.memo_api("h1", APP, "worker")
        thread = threading.Thread(target=work, name="farm-worker", daemon=True)
        thread.start()
        farm(warm, -warm, None)
        setup_end = time.perf_counter()

        window = _Window(ctx, cluster)
        window.open()
        segments = Segments(ctx.gauge)
        farm(tasks, 0, segments)
        layer = window.layer(tasks)

        master.put(jar, None, wait=True)
        thread.join(GET_TIMEOUT)
        if worker_error or thread.is_alive():
            raise RuntimeError(f"farm worker did not finish cleanly: {worker_error}")

        tail, tail_failed = tail_rw(ctx, master, ctx.count(6000, floor=20))
        recover, recover_raw = tail_recover(ctx, cluster, "h2", 12, 40)
        master.close()
        worker.close()

    from_tail = tail.latency_metrics()
    metrics = {
        "setup_s": (ctx.at_reference_speed(setup_start, setup_end), "s"),
        "ops_per_s": segments.ops_per_s(),
        "cpu_ms_per_kop": segments.cpu_ms_per_kop(),
        "put_ack_p50_ms": from_tail["put_ack_p50_ms"],
        "put_ack_p90_ms": from_tail["put_ack_p90_ms"],
        "get_p50_ms": from_tail["get_p50_ms"],
        "turnaround_p50_ms": segments.quantile_ms("turn", 0.5),
        "turnaround_p90_ms": segments.quantile_ms("turn", 0.9),
        "recover_s": (recover, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return Outcome(
        metrics,
        attempted=warm + tasks + 2 * tail.ops,
        failed=bad[0] + tail_failed,
        detail={
            "ops": tasks,
            "warmup_ops": warm,
            "turnaround_p99_ms": segments.all_ms("turn", 0.99),
            "uncorrected_setup_s": setup_end - setup_start,
            "uncorrected_recover_s": median(recover_raw),
            "tail": tail.detail(),
            **segments.detail(),
        },
        layer=layer,
        put_path={"tcp": False, "forward_share": 2 / 3, "durable_replicated": False},
        uncorrected_put_ack_ms=tail.quantile_ms("put", 0.5, corrected=False)[0],
    )


# -- crash -------------------------------------------------------------------------

#: (fraction of the put count, action, host): fired by op index, so the
#: same puts meet the same faults whatever the machine's speed.  A backup
#: is down for about a third of the window in all, so that the median
#: segment is always one with all three hosts up.
FAULT_SCHEDULE = (
    (2000 / 14000, "kill", "h1"),
    (3500 / 14000, "restart", "h1"),
    (7000 / 14000, "kill", "h2"),
    (8500 / 14000, "restart", "h2"),
    (11000 / 14000, "kill", "h1"),
    (12500 / 14000, "restart", "h1"),
)
PUT_RETRIES = 3
RETRY_SLEEP = 0.05
STALL_WINDOW = 3.0


def run_crash(ctx: RunContext) -> Outcome:
    """Acked puts through three SIGKILL/restart cycles of the backups."""
    rng = random.Random(ctx.seed)
    folders = 256
    puts = ctx.count(14_000, floor=len(FAULT_SCHEDULE) + 2)
    preload = ctx.warm(5000, floor=16)
    schedule = [
        (max(i + 1, int(frac * puts)), action, host)
        for i, (frac, action, host) in enumerate(FAULT_SCHEDULE)
    ]
    call = ctx.tracer.call

    progress = threading.Condition()
    reached = [0]
    events: list[tuple[str, str, float, float]] = []
    resynced = [0]
    controller_error: list[BaseException] = []

    def controller() -> None:
        try:
            for at, action, host in schedule:
                with progress:
                    while reached[0] < at:
                        progress.wait()
                if action == "kill":
                    _, a, b = call("Cluster.kill_host", None, at,
                                   cluster.kill_host, host)
                else:
                    stats, a, b = call("Cluster.restart_host", None, at,
                                       cluster.restart_host, host)
                    resynced[0] += sum(
                        peer.get("returned", 0) + peer.get("reseeded", 0)
                        for peer in stats.values()
                    )
                events.append((action, host, a, b))
        except BaseException as exc:
            controller_error.append(exc)

    marks = {at for at, _, _ in schedule}
    acked: list[list[int]] = [[] for _ in range(folders)]
    op_spans: list[tuple[float, float]] = []
    counts = {"retried": 0, "exhausted": 0}

    def put_loop(n: int, base: int) -> dict:
        ack_lat = []
        for i in range(base, base + n):
            f = rng.randrange(folders)
            op_start = time.perf_counter()
            for attempt in range(1 + PUT_RETRIES):
                try:
                    _, a, b = call("Memo.put", "crash.put", i,
                                   memo.put, keys[f], i, wait=True)
                except MemoError:
                    if attempt == PUT_RETRIES:
                        counts["exhausted"] += 1
                        break
                    counts["retried"] += 1
                    time.sleep(RETRY_SLEEP)
                    continue
                ack_lat.append(b - a)
                acked[f].append(i)
                break
            op_end = time.perf_counter()
            op_spans.append((op_start, op_end))
            ctx.tracer.record("crash.put", None, i, op_start, op_end)
            if i + 1 in marks:
                with progress:
                    reached[0] = i + 1
                    progress.notify()
        return {"put": ack_lat}

    ctx.gauge.sample()
    setup_start = time.perf_counter()
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=2)
    with Cluster(
        adf, backend="process", transport_kind="tcp", durability=_wal_config(ctx)
    ) as cluster:
        cluster.register()
        memo = cluster.memo_api("h0", APP, "crash")
        pre, sym = Symbol("pre"), Symbol("cr")
        keys = [Key(sym, (f,)) for f in range(folders)]
        # Resident memos nobody reads: they give WAL replay its weight.
        memo.put_many((Key(pre, (i % folders,)), i) for i in range(preload))
        memo.flush()
        setup_end = time.perf_counter()

        thread = threading.Thread(target=controller, name="crash-faults", daemon=True)
        thread.start()
        window = _Window(ctx, cluster)
        window.open()
        segments, base = Segments(ctx.gauge), 0
        for n in _split(puts, SEGMENTS):
            segments.run(n, lambda: put_loop(n, base))
            base += n
        thread.join(120.0)  # the last restart may still be in flight
        if controller_error or thread.is_alive():
            raise RuntimeError(f"fault controller failed: {controller_error}")
        layer = window.layer(puts)

        lost, duplicates = _verify_acked(memo, keys, acked)
        tail, tail_failed = tail_rw(ctx, memo, ctx.count(1500, floor=20))
        memo.close()

    restarts = [(a, b) for action, _, a, b in events if action == "restart"]
    stalls = [
        max((e - s for s, e in op_spans if a <= s <= a + STALL_WINDOW), default=0.0)
        for action, _, a, _ in events
        if action == "kill"
    ]
    from_tail = tail.latency_metrics()
    metrics = {
        "setup_s": (ctx.at_reference_speed(setup_start, setup_end), "s"),
        "ops_per_s": segments.ops_per_s(),
        "cpu_ms_per_kop": segments.cpu_ms_per_kop(),
        "put_ack_p50_ms": segments.quantile_ms("put", 0.5),
        "put_ack_p90_ms": segments.quantile_ms("put", 0.9),
        "get_p50_ms": from_tail["get_p50_ms"],
        "turnaround_p50_ms": from_tail["turnaround_p50_ms"],
        "turnaround_p90_ms": from_tail["turnaround_p90_ms"],
        "recover_s": (median([ctx.at_reference_speed(a, b) for a, b in restarts]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    layer.update(
        {
            "replication.failover_stall_ms": (max(stalls) * 1000.0, "ms"),
            "replication.retried_puts": (float(counts["retried"]), "count"),
            "replication.duplicates": (float(duplicates), "count"),
            "replication.resync_records": (float(resynced[0]), "count"),
        }
    )
    return Outcome(
        metrics,
        attempted=puts + 2 * tail.ops,
        failed=counts["exhausted"] + lost + tail_failed,
        detail={
            "ops": puts,
            "preload_ops": preload,
            "fault_schedule": [list(entry) for entry in schedule],
            "retried_puts": counts["retried"],
            "exhausted_puts": counts["exhausted"],
            "lost_acked_puts": lost,
            "duplicates": duplicates,
            "resync_records": resynced[0],
            "uncorrected_setup_s": setup_end - setup_start,
            "uncorrected_recover_s": median([b - a for a, b in restarts]),
            "recover_s_each": [b - a for a, b in restarts],
            "failover_stall_ms_each": [s * 1000.0 for s in stalls],
            "put_ack_p99_ms": segments.all_ms("put", 0.99),
            "tail": tail.detail(),
            **segments.detail(),
        },
        layer=layer,
        put_path={"tcp": True, "forward_share": 2 / 3, "durable_replicated": True},
        uncorrected_put_ack_ms=segments.quantile_ms("put", 0.5, corrected=False)[0],
    )


def _verify_acked(memo, keys: list[Key], acked: list[list[int]]) -> tuple[int, int]:
    """Consume everything back: ``(lost acked puts, duplicate deliveries)``.

    One pipelined consuming wait is issued per acked put, then every
    folder is drained.  An acked value never seen is a lost put; a value
    seen twice is a duplicate (a retried put whose first attempt had
    landed, or a consumed memo a restarted replica brought back).
    """
    seen: dict[int, int] = {}
    todo = [f for f, vals in enumerate(acked) for _ in vals]
    stranded = False
    # Chunked so requests never outrun the replies the client has read.
    for start in range(0, len(todo), 512):
        if stranded:
            break
        futures = [memo.get_async(keys[f]) for f in todo[start : start + 512]]
        for future in futures:
            try:
                value = future.wait(GET_TIMEOUT)
            except (TimeoutError, MemoError):
                stranded = True  # a lost put: stop waiting, count below
                break
            seen[value] = seen.get(value, 0) + 1
    for key in keys:
        while (value := memo.get_skip(key)) is not NIL:
            seen[value] = seen.get(value, 0) + 1
    wanted = {v for vals in acked for v in vals}
    lost = len(wanted - seen.keys())
    duplicates = sum(n - 1 for n in seen.values())
    return lost, duplicates


RUNNERS = {
    "ingest": run_ingest,
    "acked_rw": run_acked_rw,
    "farm": run_farm,
    "crash": run_crash,
}
