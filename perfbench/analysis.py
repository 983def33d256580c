"""Arithmetic of the ntom benchmark: percentiles, span self times,
open-loop latencies and run-to-run spread, plus the end-to-end and
per-layer metrics computed from a runner record (src/main.cpp)."""

import math
import statistics


class PercentileRefused(ValueError):
    """A percentile the sample cannot support."""


MIN_BEYOND = 10  # samples that must lie beyond a reported percentile.


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`.

    Refused when fewer than MIN_BEYOND samples rank above it: a p99
    needs at least 1000 samples, a p90 100, a median 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {MIN_BEYOND}")
    return ordered[rank - 1]


def percentile_or_zero(values, q):
    """percentile(), or 0 for a layer the workload never exercised."""
    return percentile(values, q) if values else 0.0


def open_loop_latencies(due, end):
    """Per-request latency of an open-loop generator: each request is
    timed from when it was due, not from when it was sent, so a stall
    is charged to every request it delayed."""
    if len(due) != len(end):
        raise ValueError("due and end times differ in length")
    return [e - d for d, e in zip(due, end)]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Span:
    __slots__ = ("id", "parent", "thread", "name", "start", "end", "run",
                 "value")

    def __init__(self, id, parent, thread, name, start, end, run, value):
        self.id = id
        self.parent = parent
        self.thread = thread
        self.name = name
        self.start = start
        self.end = end
        self.run = run
        self.value = value

    @property
    def duration(self):
        return self.end - self.start


def read_spans(path):
    """Spans written by the traced runner (tab-separated, times in ns)."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            sid, parent, thread, name, start, end, run, value = (
                line.rstrip("\n").split("\t"))
            spans.append(Span(int(sid), int(parent), int(thread), name,
                              int(start), int(end), int(run), float(value)))
    return spans


def children_of(spans):
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to the span). Children may run on
    other threads and overlap each other; overlapping time counts once."""
    children = children_of(spans)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[s.id] = s.duration - covered
    return out


def phase_of(spans):
    """Maps span id -> name of its top-level ancestor (bench.timed or
    bench.setup)."""
    by_id = {s.id: s for s in spans}
    phase = {}
    for s in spans:
        chain = []
        cur = s
        while cur is not None and cur.id not in phase:
            chain.append(cur.id)
            parent = by_id.get(cur.parent)
            if parent is None:
                top = cur.name
                break
            cur = parent
        else:
            top = phase[cur.id] if cur is not None else s.name
        for sid in chain:
            phase[sid] = top
    return phase


def spread(values):
    """(q1, median, q3, (q3 - q1) / median), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else math.inf


# ----------------------------------------------------------- the metrics

def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _rows(record, metric):
    return [v for _, _, m, v in record["accuracy"] if m == metric]


def end_to_end(record):
    """The end-to-end metrics of an untraced runner record."""
    if record["workload"] == "service":
        throughput = record["intervals"] / record["timed_s"]
        latency_ms = record["fresh_ms"]
        mae = _mean(record["mae"])
    else:
        throughput = (record["runs"] * record["intervals_per_run"] /
                      record["timed_s"])
        latency_ms = [s * 1e3 for s in record["run_seconds"]]
        mae = _mean(_rows(record, "mean_abs_error"))
    return {
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
        "intervals_per_s": (throughput, "1/s"),
        "link_mae": (mae, "prob"),
        "latency_ms_p50": (percentile(latency_ms, 0.50), "ms"),
        "latency_ms_p90": (percentile(latency_ms, 0.90), "ms"),
    }


def read_latencies_us(record):
    """Snapshot-read latencies of the open-loop reader, from due time."""
    return [x * 1e-3 for x in open_loop_latencies(
        record.get("read_due_ns", []), record.get("read_end_ns", []))]


def reader_lateness_us(record):
    """How late the open-loop reader started each read."""
    return [x * 1e-3 for x in open_loop_latencies(
        record.get("read_due_ns", []), record.get("read_start_ns", []))]


ESTIMATORS = ("sparsity", "bayes-indep", "bayes-corr", "independence",
              "corr-heuristic", "corr-complete")

# Per-layer metrics that total the timed phase's self time of the named
# spans. Every other timed span (the harness's own bench.* spans, or a
# span no metric names) counts as unattributed.
SELF_TIME_METRICS = {
    "topogen.build_s": ("topogen.build",),
    "sim.run_s": ("sim.run",),
    "corr.catalog_s": ("corr.catalog",),
    "tomo.alg1_s": ("tomo.alg1",),
    **{"api.fit_s." + est: ("api.fit." + est,) for est in ESTIMATORS},
    "infer.busy_s": ("infer.interval",),
    "exp.self_s": ("exp.grid", "exp.cell", "exp.prepare"),
    "service.ingest_s": ("service.ingest",),
    "service.read_s": ("service.read",),
    "service.flush_s": ("service.flush",),
    "trace.replay_self_s": ("trace.replay",),
}


def self_time_metrics(timed, selfs):
    """The SELF_TIME_METRICS of the timed spans (seconds), and the share
    of their summed self time (main-thread wall time plus worker and
    reader busy time) that none of those metrics reports."""
    by_name = {}
    for s in timed:
        by_name[s.name] = by_name.get(s.name, 0) + selfs[s.id]
    m = {name: (sum(by_name.get(n, 0) for n in names) * 1e-9, "s")
         for name, names in SELF_TIME_METRICS.items()}
    traced = sum(by_name.values()) * 1e-9
    attributed = sum(value for value, _ in m.values())
    m["bench.unattributed_share"] = (
        (traced - attributed) / traced if traced else 0.0, "share")
    return m


def per_layer(traced, spans, untraced):
    """Per-layer metrics of a traced record and its spans. `untraced` is
    the record of the same work without tracing (for the overhead)."""
    selfs = self_times(spans)
    phase = phase_of(spans)
    setups = len(traced["setup_s"])
    timed = [s for s in spans if phase[s.id] == "bench.timed"]
    setup = [s for s in spans if phase[s.id] == "bench.setup"]

    def total_self(group, name):
        return sum(selfs[s.id] for s in group if s.name == name) * 1e-9

    def named(group, name):
        return [s for s in group if s.name == name]

    m = self_time_metrics(timed, selfs)
    m["sim.intervals"] = (
        sum(s.value for s in named(timed, "sim.run")), "count")
    m["sim.stream_s"] = (total_self(setup, "sim.stream") / setups, "s")
    m["corr.subsets"] = (
        sum(s.value for s in named(timed, "corr.catalog")), "count")
    alg1 = named(timed, "tomo.alg1")
    m["tomo.alg1_calls"] = (len(alg1), "count")
    m["tomo.alg1_equations"] = (sum(s.value for s in alg1), "count")

    infer_us = [s.duration * 1e-3 for s in named(timed, "infer.interval")]
    m["infer.calls"] = (len(infer_us), "count")
    m["infer.interval_us_p50"] = (percentile_or_zero(infer_us, 0.50), "us")
    m["infer.interval_us_p99"] = (percentile_or_zero(infer_us, 0.99), "us")

    grids = sorted(named(timed, "exp.grid"), key=lambda s: s.start)
    stats = traced.get("grid_stats", [])  # cells, steals, hits, misses
    stats = [stats[i:i + 4] for i in range(0, len(stats), 4)]
    children = children_of(timed)
    busy = capacity = 0.0
    for grid, (cells, _, _, _) in zip(grids, stats):
        workers = min(traced["threads"], cells)
        busy += sum(c.duration for c in children.get(grid.id, ()))
        capacity += workers * grid.duration
    runs = traced.get("run_seconds", [])
    hits = sum(s[2] for s in stats)
    lookups = hits + sum(s[3] for s in stats)
    m["exp.run_s_p50"] = (statistics.median(runs) if runs else 0.0, "s")
    m["exp.run_s_max"] = (max(runs) if runs else 0.0, "s")
    m["exp.worker_idle_share"] = (
        1.0 - busy / capacity if capacity else 0.0, "share")
    m["exp.cells"] = (sum(s[0] for s in stats), "count")
    m["exp.steals"] = (sum(s[1] for s in stats), "count")
    m["exp.topo_cache_hit_share"] = (
        hits / lookups if lookups else 0.0, "share")

    ingest_us = [s.duration * 1e-3 for s in named(timed, "service.ingest")]
    chunks = traced.get("chunks", 0)
    refits = traced.get("refits", 0)
    m["service.ingest_us_p50"] = (percentile_or_zero(ingest_us, 0.50), "us")
    m["service.ingest_us_p99"] = (percentile_or_zero(ingest_us, 0.99), "us")
    m["service.refits"] = (refits, "count")
    m["service.refits_per_chunk"] = (
        refits / chunks if chunks else 0.0, "ratio")
    m["service.refits_read_share"] = (
        traced.get("versions_seen", 0) / refits if refits else 0.0, "share")
    m["service.lag_chunks_p99"] = (
        percentile_or_zero(traced.get("lag_chunks", []), 0.99), "count")
    m["service.reads"] = (traced.get("reads", 0), "count")
    m["service.torn_reads"] = (traced.get("torn_reads", 0), "count")
    read_us = read_latencies_us(traced)
    m["service.read_us_p50"] = (percentile_or_zero(read_us, 0.50), "us")
    m["service.read_us_p99"] = (percentile_or_zero(read_us, 0.99), "us")

    trace_intervals = traced.get("trace_intervals", 0)
    m["trace.write_s"] = (total_self(setup, "trace.write") / setups, "s")
    m["trace.bytes_per_interval"] = (
        traced.get("trace_bytes", 0) / trace_intervals
        if trace_intervals else 0.0, "B")

    m["score.detection_rate"] = (
        _mean(_rows(traced, "detection_rate")), "rate")
    m["score.false_positive_rate"] = (
        _mean(_rows(traced, "false_positive_rate")), "rate")

    m["bench.tracing_overhead_share"] = (
        traced["timed_s"] / untraced["timed_s"] - 1.0, "share")
    return m
