"""The ``service`` workload: open-loop queries over TCP to a `QueryService`.

One client process (this one) sends submissions on a fixed schedule over
`CONNECTIONS` TCP connections to ``server.py``, a separate process.  The
schedule never waits for answers (open loop), so a slow service builds a
backlog instead of receiving less load.  Every latency is timed from when
its query was *due*, so a stall also charges the queries queued behind it;
the generator's own lateness is reported and a run whose generator fell
more than `MAX_LATENESS_S` behind is flagged invalid.

Traffic: four tenants (``dave`` at half budget, so the ledger refuses part
of his queries; refusals are expected outcomes, not failures), cycling
mean, sum and p90-quantile queries over `SHARED_SOURCES`.  One query in
`WRITE_EVERY` names a workload spec never seen before, which makes the
`SourceHub` generate and ingest a new source.

After one unmeasured warm-up query per shared source, a run spends
`FIXED_SHARE` of ``--seconds`` at `FIXED_RATE` queries/s (the latency and
accuracy metrics; at least 1,000 answers, so at least ten lie beyond p99)
and the rest on `LADDER`, each rung drained before the next;
``sustained_qps`` is the highest rung whose p99 time-to-answer stays within
`LATENCY_LIMIT_MS` with every answer back within that limit of the rung's
last send.  The ladder triples: the capacity measured on a 2-core box moved
between about 110 and 200 queries/s from minute to minute, and a doubling
ladder put a rung inside that range, so the result flipped between runs.  With ``--trace 1`` the
ladder's share of ``--seconds`` runs the fixed rate again against a traced
server instead.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
PERF = time.perf_counter

TENANTS = {"alice": 1.0, "bravo": 1.0, "carol": 1.0, "dave": 0.5}
TENANT_ORDER = sorted(TENANTS)
CAPACITY = 8_000.0
WORKERS = 4
#: Registered sources, each a Gaussian A:B:C stream at `SHARED_RATES` ev/s
#: for `SHARED_SECONDS` (about 3.9K events, 3 panes).  Many sources spread
#: the accuracy figures over many distinct panes; twelve consecutive
#: queries (every tenant and kind) share one source.
SHARED_SOURCES = tuple(f"ticks-{k}" for k in range(32))
SHARED_RATES = (250.0, 60.0, 15.0)
SHARED_SECONDS = 12.0
LENGTH, SLIDE = 10.0, 5.0
KINDS = ("mean", "sum", "quantile")
QUANTILE = 0.9
FRACTION = 0.3
CHUNK = 4096
WRITE_EVERY = 25
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

FIXED_RATE = 60.0
FIXED_SHARE = 0.84
LADDER = (30.0, 90.0, 270.0)
LATENCY_LIMIT_MS = 500.0
MAX_LATENESS_S = 0.25
DRAIN_S = 10.0
#: Every K-th answer is re-run standalone through `execute_plan`.
CHECK_EVERY = 25
#: Set-up is measured on this many server starts, the median reported:
#: the measured server plus `SETUP_PROBES` // 2 probe starts before it and
#: as many after the run, so the samples span the run's window.
SETUP_PROBES = 4


def shared_sources(seed: int) -> dict:
    """``{name: (events, ts, codes, values)}`` of every registered source."""
    return {
        name: inputs.gaussian_events(seed * 100 + k, SHARED_RATES, SHARED_SECONDS)
        for k, name in enumerate(SHARED_SOURCES)
    }


def submission(index: int) -> dict:
    """The wire message of the ``index``-th query of a run."""
    tenant = TENANT_ORDER[index % len(TENANT_ORDER)]
    message = {
        "op": "submit", "id": index, "tenant": tenant,
        "config": {"fraction": FRACTION, "seed": index, "chunk_size": CHUNK},
    }
    if index % WRITE_EVERY == WRITE_EVERY - 1:
        message["source"] = {"workload": "gaussian", "rate": 100,
                             "duration": 12, "seed": 10_000 + index}
        return message
    message["source"] = SHARED_SOURCES[(index // 12) % len(SHARED_SOURCES)]
    kind = KINDS[(index // len(TENANT_ORDER)) % len(KINDS)]
    message["kind"] = kind
    if kind == "quantile":
        message["q"] = QUANTILE
    return message


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """A ``server.py`` process; `stop` closes its input and reads its stats."""

    def __init__(self, seed: int, traced: bool) -> None:
        out = HERE.parent / tracer.OUT_DIR
        out.mkdir(exist_ok=True)
        # Every start appends to one log per seed and mode, so the probe
        # starts do not overwrite the measured server's; its tail is shown
        # if a server fails.
        self.log_path = out / f"server-{seed}-{int(traced)}.log"
        self.log = open(self.log_path, "ab")
        start = PERF()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--seed", str(seed),
             "--trace", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            cwd=str(HERE.parent),
        )
        line = self.proc.stdout.readline()
        elapsed = PERF() - start
        if not line:
            self.proc.wait(timeout=60)
            raise RuntimeError(self._failure("exited before listening"))
        ready = json.loads(line)
        self.port = ready["port"]
        # Making the shared source is load generation, not set-up.
        self.setup_s = elapsed - ready["gen_s"]
        self.gen_s = ready["gen_s"]

    def stop(self) -> dict:
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.stdout.close()
        if self.proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError(self._failure("failed on shutdown"))
        return json.loads(line)

    def _failure(self, what: str) -> str:
        self.log.flush()
        tail = self.log_path.read_text(errors="replace")[-2000:]
        return f"service server {what}; its log ends:\n{tail}"

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=60)
        self.log.close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class Query:
    __slots__ = ("index", "message", "due", "sent", "panes", "answer",
                 "answer_at", "outcome")

    def __init__(self, index, message, due) -> None:
        self.index, self.message, self.due = index, message, due
        self.sent = None
        self.panes = []  # (received_at, payload)
        self.answer = None
        self.answer_at = None
        self.outcome = None  # "answer" | "rejected" | "error: ..."


class Client:
    def __init__(self) -> None:
        self.queries: dict = {}
        self.lateness = 0.0
        self._conns = []
        self._readers = []
        self._resolved = asyncio.Event()
        self._open = 0

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self._conns.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = PERF()
            message = json.loads(line)
            query = self.queries.get(message.get("id"))
            if query is None:
                continue
            kind = message.get("type")
            if kind == "pane":
                query.panes.append((now, message))
            elif kind == "answer":
                query.answer, query.answer_at = message, now
                self._resolve(query, "answer")
            elif kind == "rejected":
                self._resolve(query, "rejected")
            elif kind == "error":
                self._resolve(query, f"error: {message.get('detail')}")

    def _resolve(self, query, outcome) -> None:
        if query.outcome is None:
            query.outcome = outcome
            self._open -= 1
            if self._open == 0:
                self._resolved.set()

    async def warm_up(self) -> None:
        """One unmeasured query per shared source, one at a time, so the
        measured phase does not start with every source's first-query
        column build."""
        for k, name in enumerate(SHARED_SOURCES):
            query = Query(f"warm-{k}", {
                "op": "submit", "id": f"warm-{k}", "tenant": TENANT_ORDER[0],
                "source": name, "config": {"fraction": FRACTION, "seed": k,
                                           "chunk_size": CHUNK},
            }, PERF())
            self.queries[query.index] = query
            self._open += 1
            self._resolved.clear()
            self._conns[0].write((json.dumps(query.message) + "\n").encode())
            await asyncio.wait_for(self._resolved.wait(), DRAIN_S)
            if query.outcome != "answer":
                raise RuntimeError(f"warm-up query {query.index}: {query.outcome}")
            del self.queries[query.index]

    async def phase(self, rate: float, seconds: float, first: int):
        """Send ``rate × seconds`` queries on schedule; wait for the backlog.

        Returns the phase's queries and the time of the last send; queries
        still unresolved `DRAIN_S` after it keep ``outcome`` None.
        """
        count = max(1, int(round(rate * seconds)))
        start = PERF() + 0.05
        batch = []
        for k in range(count):
            index = first + k
            query = Query(index, submission(index), start + k / rate)
            delay = query.due - PERF()
            if delay > 0:
                await asyncio.sleep(delay)
            query.sent = PERF()
            self.lateness = max(self.lateness, query.sent - query.due)
            self.queries[index] = query
            self._open += 1
            self._resolved.clear()
            writer = self._conns[index % len(self._conns)]
            writer.write((json.dumps(query.message) + "\n").encode())
            batch.append(query)
        last_send = PERF()
        if self._open:
            try:
                await asyncio.wait_for(self._resolved.wait(), DRAIN_S)
            except asyncio.TimeoutError:
                pass
        return batch, last_send

    async def close(self) -> None:
        for writer in self._conns:
            writer.close()
        for writer in self._conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        await asyncio.gather(*self._readers, return_exceptions=True)


# ---------------------------------------------------------------------------
# Metrics and checks
# ---------------------------------------------------------------------------


def _tta_ms(query) -> float:
    return (query.answer_at - query.due) * 1000.0


def _answered(batch):
    return [q for q in batch if q.outcome == "answer"]


def ladder_rung_ok(batch, last_send) -> bool:
    answered = _answered(batch)
    if any(q.outcome is None or q.outcome.startswith("error") for q in batch):
        return False
    if not answered:
        return False
    drained_by = max(q.answer_at for q in answered)
    return (tracer.percentile([_tta_ms(q) for q in answered], 99)
            <= LATENCY_LIMIT_MS
            and (drained_by - last_send) * 1000.0 <= LATENCY_LIMIT_MS)


def exact_answers(seed: int) -> dict:
    """``{source: {kind: {pane end: exact value}}}`` for the shared sources."""
    return {
        name: {
            kind: {end: value for end, value, _g in inputs.exact_panes(
                ts, values, SLIDE, LENGTH, kind=kind, q=QUANTILE)}
            for kind in KINDS
        }
        for name, (_events, ts, _codes, values) in shared_sources(seed).items()
    }


def check_answers(batch, truth, problems):
    """Accuracy and coverage over answered shared-source queries."""
    errors, covered, panes = [], 0, 0
    for query in _answered(batch):
        answer = query.answer
        if answer.get("columnar_fallback") or answer.get("parallel_fallback"):
            problems.append(f"query {query.index} reported a fallback: "
                            f"{answer.get('columnar_fallback')}"
                            f"{answer.get('parallel_fallback')}")
        if answer["panes"] != len(query.panes):
            problems.append(f"query {query.index}: {len(query.panes)} panes "
                            f"streamed, answer says {answer['panes']}")
        if not isinstance(query.message["source"], str):
            continue
        exact = truth[query.message["source"]][query.message["kind"]]
        ends = [p["end"] for _t, p in query.panes]
        if ends != sorted(exact):
            problems.append(f"query {query.index}: pane ends {ends} != "
                            f"{sorted(exact)}")
            continue
        for _t, pane in query.panes:
            value = exact[pane["end"]]
            low, high = pane["error"]["interval"]
            covered += low <= value <= high
            errors.append(abs(pane["estimate"] - value) / abs(value))
            panes += 1
    return errors, covered, panes


def standalone_check(batch, seed, problems) -> int:
    """Re-run every `CHECK_EVERY`-th answered query through `execute_plan`.

    The plan is compiled by the service's own submission path over a hub
    holding the same sources, so any difference is the serving layer
    changing *what* a query computes.  Returns how many were checked.
    """
    import repro.runtime as rt
    from repro.service import QueryService, protocol

    service = QueryService()
    for name, (events, *_columns) in shared_sources(seed).items():
        service.hub.register(name, events)
    checked = 0
    try:
        for query in _answered(batch):
            if query.index % CHECK_EVERY:
                continue
            plan = service._build_plan(protocol.submission_from_message(query.message))
            results, _cluster = rt.execute_plan(plan)
            wire = [p for _t, p in query.panes]
            same = len(results) == len(wire) and all(
                r.end == p["end"] and r.estimate == p["estimate"]
                and r.error.margin == p["error"]["margin"]
                and list(r.error.interval) == p["error"]["interval"]
                for r, p in zip(results, wire)
            )
            if not same:
                problems.append(f"query {query.index}: service answer differs "
                                "from its standalone execute_plan run")
            checked += 1
    finally:
        service._executor.shutdown(wait=True)
    return checked


def same_wire_answers(batch_a, batch_b, problems) -> None:
    """Traced and untraced servers must stream identical panes."""
    def panes(query):
        # The server numbers queries in admission order, which may differ
        # between the two runs; everything else must match exactly.
        return [{k: v for k, v in p.items() if k != "query_id"}
                for _t, p in query.panes]

    other = {q.index: q for q in _answered(batch_b)}
    for query in _answered(batch_a):
        twin = other.get(query.index)
        if twin is None:
            continue
        if panes(query) != panes(twin):
            problems.append(f"query {query.index}: traced answer differs "
                            "from the untraced one")


def latency_metrics(batch, seconds) -> dict:
    answered = _answered(batch)
    tta = [_tta_ms(q) for q in answered]
    ttfp = [(q.panes[0][0] - q.due) * 1000.0 for q in answered if q.panes]
    gaps = [
        (b[0] - a[0]) * 1000.0
        for q in answered for a, b in zip(q.panes, q.panes[1:])
    ]
    events = sum(q.answer["items_total"] for q in answered)
    return {
        "throughput_eps": events / seconds,
        "first_pane_s": statistics.median(ttfp) / 1000.0,
        "pane_ms_p50": tracer.percentile(gaps, 50),
        "pane_ms_p90": tracer.percentile(gaps, 90),
        "tta_p50_ms": tracer.percentile(tta, 50),
        "tta_p99_ms": tracer.percentile(tta, 99),
        "ttfp_p50_ms": tracer.percentile(ttfp, 50),
        "ttfp_p99_ms": tracer.percentile(ttfp, 99),
    }


# ---------------------------------------------------------------------------
# Server-side per-layer summary (runs inside server.py)
# ---------------------------------------------------------------------------


def server_layers(rec) -> dict:
    """Per-layer metrics from the server's recorder: medians per query."""
    analysis = tracer.analyse(rec)
    requests = [r for r in analysis if r is not None]
    queries = max(1, len(requests))
    counts = {k: v / queries for k, v in rec.counts().items()}
    layers = tracer.layer_metrics(analysis, requests, counts)

    def durations_ms(name):
        return [
            d * 1000.0 for entry in analysis.values()
            for d in entry["durations"].get(name, ())
        ]

    submit = durations_ms("service.submit")
    wait = durations_ms("service.admission_wait")
    execute = durations_ms("runtime.execute")
    layers.update({
        "service.submit_ms_p50": tracer.percentile(submit, 50),
        "service.submit_ms_p99": tracer.percentile(submit, 99),
        "service.resolve_s": sum(durations_ms("service.resolve")) / 1000.0,
        "service.admission_wait_ms_p50": tracer.percentile(wait, 50),
        "service.admission_wait_ms_p99": tracer.percentile(wait, 99),
        "service.exec_ms_p50": tracer.percentile(execute, 50),
        "service.exec_ms_p99": tracer.percentile(execute, 99),
        "service.queue_depth_max": rec.counts().get("service.queue_depth_max", 0.0),
    })
    return layers


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


async def _drive(port, rate, seconds, first=0, warm_up=False):
    client = Client()
    await client.connect(port)
    try:
        if warm_up:
            await client.warm_up()
        batch, last_send = await client.phase(rate, seconds, first)
    finally:
        await client.close()
    return client, batch, last_send


async def _ladder(port, seconds_per_rung, first):
    sustained, lateness = 0.0, 0.0
    for rate in LADDER:
        client, batch, last_send = await _drive(port, rate, seconds_per_rung, first)
        first += len(batch)
        lateness = max(lateness, client.lateness)
        if not ladder_rung_ok(batch, last_send):
            break
        sustained = rate
    return sustained, lateness, first


def _outcomes(batch, problems) -> tuple:
    attempted = len(batch)
    failed = sum(1 for q in batch if q.outcome is None or q.outcome.startswith("error"))
    for q in batch:
        if q.outcome is None:
            problems.append(f"query {q.index} unanswered {DRAIN_S:g} s after "
                            "the last send")
        elif q.outcome.startswith("error"):
            problems.append(f"query {q.index}: {q.outcome}")
    return attempted, failed


def run(seed: int, seconds: float, traced: bool):
    """Run the service workload; returns run.py's result tuple."""
    problems: list = []
    setups, servers = [], []

    def probe_start():
        probe = Server(seed, traced=False)
        servers.append(probe)
        setups.append(probe.setup_s)
        probe.stop()

    try:
        for _ in range(SETUP_PROBES // 2):
            probe_start()
        server = Server(seed, traced=False)
        servers.append(server)
        setups.append(server.setup_s)
        fixed_s = seconds * FIXED_SHARE
        client, batch, _last = asyncio.run(
            _drive(server.port, FIXED_RATE, fixed_s, warm_up=True))
        lateness = client.lateness
        sustained, first = 0.0, len(batch)
        if not traced:
            rung_s = seconds * (1.0 - FIXED_SHARE) / len(LADDER)
            sustained, ladder_late, first = asyncio.run(
                _ladder(server.port, rung_s, first))
            lateness = max(lateness, ladder_late)
        stats = server.stop()
        traced_stats = traced_batch = None
        if traced:
            tserver = Server(seed, traced=True)
            servers.append(tserver)
            tclient, traced_batch, _last = asyncio.run(_drive(
                tserver.port, FIXED_RATE, seconds - fixed_s, warm_up=True))
            traced_stats = tserver.stop()
            lateness = max(lateness, tclient.lateness)
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            probe_start()
    finally:
        for server in servers:
            server.kill()

    attempted, failed = _outcomes(batch, problems)
    if lateness > MAX_LATENESS_S:
        problems.append(f"invalid run: the load generator fell "
                        f"{lateness * 1000:.0f} ms behind schedule")
    truth = exact_answers(seed)
    errors, covered, panes = check_answers(batch, truth, problems)
    if not errors:
        problems.append("no shared-source query was answered")
        return attempted, failed, problems, {}, {}
    standalone_check(batch, seed, problems)
    end_to_end = latency_metrics(batch, fixed_s)
    end_to_end.update({
        "accuracy_loss": math.fsum(errors) / len(errors),
        "ci_coverage": covered / panes,
        "sustained_qps": sustained,
        "setup_s": statistics.median(setups),
        "rss_peak_mb": stats["rss_mb"],
    })
    layers = {
        "service.completed": stats["service"]["completed"],
        "service.rejected": stats["service"]["rejected"],
        "service.failed": stats["service"]["failed"],
        "loadgen.lateness_ms_max": lateness * 1000.0,
        "loadgen.gen_s": server.gen_s,
        "proc.cpu_s": stats["cpu_s"],
        "failed_ratio": failed / max(1, attempted),
    }
    if traced:
        t_attempted, t_failed = _outcomes(traced_batch, problems)
        attempted += t_attempted
        failed += t_failed
        same_wire_answers(batch, traced_batch, problems)
        layers.update(traced_stats["layers"])
        wire = [
            _tta_ms(q) - q.answer["time_to_answer"] * 1000.0
            for q in _answered(traced_batch)
        ]
        traced_tta = latency_metrics(traced_batch, seconds - fixed_s)["tta_p50_ms"]
        layers.update({
            "wire.ms_p50": tracer.percentile(wire, 50),
            "wire.ms_p99": tracer.percentile(wire, 99),
            "service.completed": traced_stats["service"]["completed"],
            "service.rejected": traced_stats["service"]["rejected"],
            "service.failed": traced_stats["service"]["failed"],
            "runtime.panes": statistics.median(
                q.answer["panes"] for q in _answered(traced_batch)),
            "proc.cpu_s": traced_stats["cpu_s"],
            "trace.overhead_pct": (traced_tta / end_to_end["tta_p50_ms"] - 1.0) * 100.0,
        })
    return attempted, failed, problems, end_to_end, layers
