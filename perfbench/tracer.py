"""A minimal span recorder, kept in the benchmark so no program change can
alter how the traced run measures.

`Recorder` keeps spans and counters in memory, one buffer per thread, and
`instrument` wraps the public entry points of each layer of the `repro`
package (module functions are replaced in every `repro` module that holds a
reference to them, methods on their class).  A span records its name, start,
end, parent span and request id; a request is one timed run of an engine
workload, or one query inside the service.  Calls too frequent for a span
object each (per-item ``offer``, the simulated-cluster charges) feed timed
counters instead, whose time stays inside the enclosing span's self time.

`analyse` turns the buffers into per-layer busy time, self time and
counts; `chrome_trace` writes them out in the Chrome ``trace_event`` format.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

PERF = time.perf_counter
#: Run outputs (traces, server logs), relative to the repository root.
OUT_DIR = ".perfbench-out"


class _ThreadBuffer:
    __slots__ = ("tid", "spans", "stack", "counts", "request")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        # span = [name, start, end, parent index in this buffer or -1, request]
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(float)
        self.request = None


class Recorder:
    """Per-thread span and counter buffers, merged when read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()
        # Maps a plan object's id to the request id of the query running it
        # (set by the service instrumentation, read when a run starts).
        self.plan_requests: dict = {}
        #: True while the benchmark itself collects garbage between runs.
        self.harness_gc = False

    def buffer(self) -> _ThreadBuffer:
        local = self._local
        if hasattr(local, "buf"):
            return local.buf
        buf = _ThreadBuffer(threading.get_ident())
        with self._lock:
            self._buffers.append(buf)
        local.buf = buf
        return buf

    def set_request(self, request) -> None:
        """Request id for the spans this thread records from now on."""
        self.buffer().request = request

    def flat_span(self, name: str, start: float, end: float, request=None) -> None:
        """A span with no parent, e.g. one around an awaited coroutine."""
        self.buffer().spans.append([name, start, end, -1, request])

    def spans(self):
        """Every span as ``(thread, index, name, start, end, parent, request)``."""
        for buf in list(self._buffers):
            for index, (name, start, end, parent, request) in enumerate(buf.spans):
                yield buf.tid, index, name, start, end, parent, request

    def counts(self) -> dict:
        total = defaultdict(float)
        for buf in list(self._buffers):
            for name, value in list(buf.counts.items()):
                total[name] += value
        return dict(total)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def span_wrapper(rec: Recorder, fn, name: str, after=None):
    """Wrap ``fn`` in a span; ``after(counts, args, result)`` adds counts."""

    def wrapper(*args, **kwargs):
        buf = rec.buffer()
        stack = buf.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, buf.request]
        stack.append(len(buf.spans))
        buf.spans.append(span)
        span[1] = PERF()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = PERF()
            stack.pop()
        if after is not None:
            after(buf.counts, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


#: `timed_counter` times one call in this many; counts stay exact.
TIME_EVERY = 16


def timed_counter(rec: Recorder, fn, name: str):
    """Count calls of ``fn`` under ``name``; estimate their time as ``name_s``.

    For per-item calls a span object each, or even two clock reads each,
    would cost more than many of the calls themselves.  Every call is
    counted, one in `TIME_EVERY` is timed, and the timed sum is scaled up.
    """
    calls, seconds = name, name + "_s"
    local = rec._local

    def wrapper(*args, **kwargs):
        try:
            counts = local.buf.counts
        except AttributeError:
            counts = rec.buffer().counts
        n = counts[calls] = counts[calls] + 1
        if n % TIME_EVERY:
            return fn(*args, **kwargs)
        start = PERF()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[seconds] += (PERF() - start) * TIME_EVERY

    wrapper.__wrapped__ = fn
    return wrapper


def async_span_wrapper(rec: Recorder, fn, name: str, request_of=None):
    """Wrap a coroutine function; its span has no parent (tasks interleave)."""

    async def wrapper(*args, **kwargs):
        start = PERF()
        result = None
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            request = request_of(args, result) if request_of is not None else None
            rec.flat_span(name, start, PERF(), request)

    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Attribute replacements that `undo` reverts, newest first."""

    def __init__(self) -> None:
        self._undo: list = []
        self._gc_callbacks: list = []

    def gc_callback(self, callback) -> None:
        gc.callbacks.append(callback)
        self._gc_callbacks.append(callback)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, fn, make) -> None:
        """Replace ``fn`` by ``make(fn)`` in every `repro` module naming it."""
        wrapped = make(fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapped)

    def undo(self) -> None:
        while self._gc_callbacks:
            gc.callbacks.remove(self._gc_callbacks.pop())
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _gc_watch(rec: Recorder):
    """A `gc.callbacks` hook adding collector pauses to the counters."""
    started = {}

    def callback(phase, info):
        if phase == "start":
            started[threading.get_ident()] = PERF()
            return
        start = started.pop(threading.get_ident(), None)
        if start is not None and not rec.harness_gc:
            counts = rec.buffer().counts
            counts["gc.pause_s"] += PERF() - start
            if info["generation"] == 2:
                counts["gc.full_collections"] += 1

    return callback


def _items_in(counts, args, _result) -> None:
    counts["oasrs.items_in"] += len(args[1])


def _items_kept(counts, _args, sample) -> None:
    counts["oasrs.items_kept"] += sample.total_items


def _shard_kept(counts, _args, sample) -> None:
    counts["shard.items_kept"] += sample.total_items


def _rows_built(counts, args, _cols) -> None:
    counts["records.events"] += len(args[0])


#: Public charge methods of `repro.engine.cluster.SimulatedCluster`.
CLUSTER_METHODS = (
    "parallel", "serial", "barrier", "ingest_items", "process_items",
    "form_batch", "shuffle_items", "sample_items", "sort", "launch_tasks",
    "launch_job", "create_rdd",
)


def instrument(rec: Recorder, service: bool = False) -> Patches:
    """Wrap each layer's entry points; returns the patches to undo.

    Layers and their spans (the name's prefix is the layer):
    ``records`` column build and projection interning, ``oasrs`` chunk
    sampling and interval close, ``shard`` one interval on the worker pool,
    ``estimate`` pane estimation, ``engine`` the batched and pipelined
    drivers, ``runtime`` planning and `execute_plan`, and with ``service``
    the query service's submit, source resolution and admission wait.
    """
    from repro.core import distributed, error, oasrs, records, strata
    from repro.engine.cluster import SimulatedCluster
    from repro.engine.pipelined.operators import Operator
    from repro.runtime import driver, plan, report

    p = Patches()
    RB = records.RecordBatch
    p.set(RB, "_build_columns",
          span_wrapper(rec, RB._build_columns, "records.columns", _rows_built))
    p.set(RB, "project", span_wrapper(rec, RB.project, "records.project"))

    S = oasrs.OASRSSampler
    p.set(S, "process_chunk",
          span_wrapper(rec, S.process_chunk, "oasrs.chunk", _items_in))
    p.set(S, "close_interval",
          span_wrapper(rec, S.close_interval, "oasrs.close_interval", _items_kept))
    p.set(S, "offer", timed_counter(rec, S.offer, "oasrs.offer_calls"))

    X = distributed.ShardedExecutor
    p.set(X, "run_span", span_wrapper(rec, X.run_span, "shard.span", _shard_kept))
    p.set(X, "run_chunks", span_wrapper(rec, X.run_chunks, "shard.span", _shard_kept))
    p.set(X, "run", span_wrapper(rec, X.run, "shard.span", _shard_kept))

    for fn, name in (
        (error.estimate_error, "estimate.error"),
        (report.estimate_pane_stats, "estimate.pane_stats"),
        (strata.combine_worker_samples, "estimate.combine"),
    ):
        p.function(fn, lambda f, n=name: span_wrapper(rec, f, n))

    for method in CLUSTER_METHODS:
        p.set(SimulatedCluster, method,
              timed_counter(rec, getattr(SimulatedCluster, method), "engine.cluster_calls"))
    p.set(Operator, "emit_watermark",
          timed_counter(rec, Operator.emit_watermark, "engine.watermarks"))
    p.function(driver.run_batched, lambda f: span_wrapper(rec, f, "engine.batched"))
    p.function(driver.run_pipelined, lambda f: span_wrapper(rec, f, "engine.pipelined"))

    p.function(plan.build_plan, lambda f: span_wrapper(rec, f, "runtime.plan"))

    def execute(f):
        inner = span_wrapper(rec, f, "runtime.execute")

        def run(plan_, *args, **kwargs):
            request = rec.plan_requests.get(id(plan_))
            if request is not None:
                rec.set_request(request)
            return inner(plan_, *args, **kwargs)

        return run

    p.function(driver.execute_plan, execute)
    p.gc_callback(_gc_watch(rec))
    if service:
        _instrument_service(rec, p)
    return p


def _instrument_service(rec: Recorder, p: Patches) -> None:
    from repro.service.hub import SourceHub
    from repro.service.scheduler import TenantScheduler
    from repro.service.service import QueryService

    def submitted(_args, handle):
        if handle is None:
            return None
        rec.plan_requests[id(handle.plan)] = handle.query_id
        return handle.query_id

    p.set(QueryService, "submit",
          async_span_wrapper(rec, QueryService.submit, "service.submit", submitted))
    p.set(SourceHub, "resolve", span_wrapper(rec, SourceHub.resolve, "service.resolve"))

    acquire = TenantScheduler.acquire

    async def acquire_traced(self, tenant_id, cost):
        # Queries already waiting for capacity when this one asks for it.
        counts = rec.buffer().counts
        counts["service.queue_depth_max"] = max(
            counts["service.queue_depth_max"], self.queue_depth()
        )
        start = PERF()
        try:
            return await acquire(self, tenant_id, cost)
        finally:
            rec.flat_span("service.admission_wait", start, PERF())

    p.set(TenantScheduler, "acquire", acquire_traced)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(rec: Recorder) -> dict:
    """Per request: busy and self seconds per layer, span counts and lists.

    Busy time counts a span only when no ancestor belongs to the same layer
    (nested calls are not counted twice); self time is a span's duration
    minus the part of it that its child spans cover.
    """
    by_thread = defaultdict(list)
    for tid, index, name, start, end, parent, request in rec.spans():
        by_thread[tid].append((index, name, start, end, parent, request))
    out = defaultdict(lambda: {
        "busy": defaultdict(float), "self": defaultdict(float),
        "durations": defaultdict(list),
    })
    for spans in by_thread.values():
        children = defaultdict(list)
        for index, name, start, end, parent, _request in spans:
            if parent >= 0:
                children[parent].append((start, end))
        names = {index: name for index, name, *_rest in spans}
        parents = {index: parent for index, _n, _s, _e, parent, _r in spans}
        for index, name, start, end, parent, request in spans:
            entry = out[request]
            duration = end - start
            layer = layer_of(name)
            entry["durations"][name].append(duration)
            entry["self"][layer] += duration - _union(children.get(index, ()))
            ancestor = parent
            while ancestor >= 0 and layer_of(names[ancestor]) != layer:
                ancestor = parents[ancestor]
            if ancestor < 0:
                entry["busy"][layer] += duration
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-p * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(analysis, requests, counts) -> dict:
    """The per-layer metrics shared by every workload.

    Span-based values are medians over ``requests`` of each request's total;
    ``counts`` maps counter names to per-request values.
    """

    def med(fn):
        return median_or_zero([fn(analysis[r]) for r in requests])

    def total(name):
        return med(lambda a: sum(a["durations"].get(name, ())))

    def spans(name):
        return med(lambda a: len(a["durations"].get(name, ())))

    def self_s(layer):
        return med(lambda a: a["self"].get(layer, 0.0))

    def busy(layer):
        return med(lambda a: a["busy"].get(layer, 0.0))

    count = lambda name: counts.get(name, 0.0)  # noqa: E731
    items_in = count("oasrs.items_in") + count("oasrs.offer_calls")
    kept = count("oasrs.items_kept")
    return {
        "records.columns_s": total("records.columns"),
        "records.project_s": total("records.project"),
        "records.events": count("records.events"),
        "records.self_s": self_s("records"),
        "oasrs.chunk_s": total("oasrs.chunk"),
        "oasrs.chunks": spans("oasrs.chunk"),
        "oasrs.offer_calls": count("oasrs.offer_calls"),
        "oasrs.offer_s": count("oasrs.offer_calls_s"),
        "oasrs.close_interval_s": total("oasrs.close_interval"),
        "oasrs.items_in": items_in,
        "oasrs.items_kept": kept,
        "oasrs.kept_ratio": kept / items_in if items_in else 0.0,
        "oasrs.self_s": self_s("oasrs"),
        "shard.span_s": busy("shard"),
        "shard.spans": spans("shard.span"),
        "shard.first_span_s": med(
            lambda a: a["durations"].get("shard.span", [0.0])[0]),
        "shard.items_kept": count("shard.items_kept"),
        "estimate.s": busy("estimate"),
        "estimate.calls": med(lambda a: sum(
            len(v) for k, v in a["durations"].items() if layer_of(k) == "estimate")),
        "estimate.self_s": self_s("estimate"),
        "engine.cluster_calls": count("engine.cluster_calls"),
        "engine.cluster_s": count("engine.cluster_calls_s"),
        "engine.watermarks": count("engine.watermarks"),
        "engine.batched_s": total("engine.batched"),
        "engine.pipelined_s": total("engine.pipelined"),
        "engine.self_s": self_s("engine"),
        "runtime.plan_s": total("runtime.plan"),
        "runtime.self_s": self_s("runtime"),
        "gc.pause_s": count("gc.pause_s"),
        "gc.full_collections": count("gc.full_collections"),
        "trace.self_sum_s": med(lambda a: sum(a["self"].values())),
    }


def chrome_trace(rec: Recorder, path, pid: int = 1) -> None:
    """Write the spans as a Chrome ``trace_event`` JSON file."""
    events = []
    origin = min((s[3] for s in rec.spans()), default=0.0)
    for tid, index, name, start, end, parent, request in rec.spans():
        events.append({
            "name": name, "cat": layer_of(name), "ph": "X", "pid": pid,
            "tid": tid, "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"request": request, "id": index, "parent": parent},
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
