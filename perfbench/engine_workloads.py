"""The engine workloads: ``direct``, ``sharded`` and ``engines``.

Each timed run hands a freshly generated event list to `execute_plan`
(through a new `ListSource`, so the `RecordBatch` and its columns are built
inside the run) and timestamps every pane through ``on_pane``.  Ground
truth, fallback and pane-end checks run after the clock stops.

Sizes: ``direct``/``sharded`` keep the fig6a 80:20:1 mix at 3,200:800:40
ev/s, so each 5 s slide holds about 20K events as in the full 600 s stream,
but run 150 s of it (30 panes, about 606K events) per timed run; ``engines``
runs the taxi case study at 1,000 ev/s for 150 s (30 panes, 150K events).
The shorter streams let one measured window hold 8 to 15 independent runs,
so the reported statistics and the pooled accuracy rest on many inputs.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
import tracer

PERF = time.perf_counter
LENGTH, SLIDE = 10.0, 5.0
GAUSSIAN_RATES = (3200.0, 800.0, 40.0)
GAUSSIAN_SECONDS = 150.0
TAXI_RATE = 1000.0
TAXI_SECONDS = 150.0
FRACTION = 0.4
#: Set-up is measured this many times per invocation, the launches spread
#: evenly over the measured window; the median is reported.
SETUP_PROBES = 7
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def shard_count() -> int:
    return max(2, os.cpu_count() or 1)


def build_plans(workload: str, seed: int = 0):
    """``[(label, plan)]`` the workload runs; the set-up probe builds these."""
    import repro.runtime as rt

    window = rt.WindowConfig(length=LENGTH, slide=SLIDE)
    if workload in ("direct", "sharded"):
        config = rt.SystemConfig(
            sampling_fraction=FRACTION, chunk_size=4096, seed=seed,
            parallelism=shard_count() if workload == "sharded" else 1,
        )
        query = rt.StreamQuery(kind="mean", name="micro-mean")
        return [(workload, rt.build_plan(query, window, config,
                                         engine="direct", strategy="oasrs",
                                         name=workload))]
    if workload == "engines":
        from repro.workloads.taxi import ride_borough, ride_distance

        query = rt.StreamQuery(
            key_fn=ride_borough, value_fn=ride_distance, kind="mean",
            group_fn=ride_borough, name="distance-per-borough",
        )
        config = rt.SystemConfig(sampling_fraction=FRACTION, seed=seed)
        return [
            (engine, rt.build_plan(query, window, config, engine=engine,
                                   strategy="oasrs", name=engine))
            for engine in ("batched", "pipelined")
        ]
    raise ValueError(f"not an engine workload: {workload}")


class SetupProbes:
    """Launches set-up probes through ``setup_probe.py --launcher``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, str(SETUP_PROBE), "--launcher", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=str(SETUP_PROBE.parent.parent),
        )

    def probe(self) -> tuple:
        """``(seconds from launch to ready, the probe's CPU seconds)``."""
        self.proc.stdin.write(b"probe\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError(f"set-up probe for {self.workload} failed")
        return float(reply[0]), float(reply[1])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def make_input(workload: str, seed: int):
    """``(events, truth, group_names, last_ts)`` for one timed run."""
    if workload == "engines":
        from repro.workloads.taxi import BOROUGH_MIX

        names = list(BOROUGH_MIX)
        events, ts, codes, values = inputs.taxi_events(seed, TAXI_RATE, TAXI_SECONDS)
        truth = inputs.exact_panes(ts, values, SLIDE, LENGTH, groups=codes,
                                   n_groups=len(names))
        return events, truth, names, float(ts[-1])
    events, ts, _codes, values = inputs.gaussian_events(
        seed, GAUSSIAN_RATES, GAUSSIAN_SECONDS
    )
    return events, inputs.exact_panes(ts, values, SLIDE, LENGTH), [], float(ts[-1])


def timed_run(plan, events, rec=None):
    """One run from handing over ``events`` to the last pane.

    Returns ``(results, run_info, start, pane_stamps)``.  The collector is
    run first so each run starts from the same heap state; a recorder
    ``rec`` does not count that collection as a pause of the program.
    """
    import repro.runtime as rt

    if rec is not None:
        rec.harness_gc = True
    gc.collect()
    if rec is not None:
        rec.harness_gc = False
    stamps = []
    info: dict = {}
    stamp = stamps.append
    start = PERF()
    results, _cluster = rt.execute_plan(
        plan.with_source(rt.ListSource(events)), run_info=info,
        on_pane=lambda _pane: stamp(PERF()),
    )
    return results, info, start, stamps


def check_run(results, info, truth, group_names, problems, last_ts, engine):
    """Append correctness problems; return ``(errors, covered, panes)``.

    The pipelined engine drops the end-of-stream pane that would fire past
    the last event's timestamp (it has no watermark to fire on); the other
    engines keep it with its nominal end.
    """
    for key in ("parallel_fallback", "columnar_fallback"):
        if info.get(key):
            problems.append(f"{key}: {info[key]}")
    if engine == "pipelined":
        truth = [pane for pane in truth if pane[0] <= last_ts]
    ends = [r.end for r in results]
    expected = [end for end, _v, _g in truth]
    if ends != expected:
        problems.append(f"pane ends {ends[:3]}..{ends[-3:]} != truth "
                        f"{expected[:3]}..{expected[-3:]}")
        return [], 0, 0
    errors, covered = [], 0
    for result, (_end, exact, exact_groups) in zip(results, truth):
        margin = result.error.margin
        covered += abs(result.estimate - exact) <= margin
        if exact_groups:
            for code, exact_g in exact_groups.items():
                estimate_g = result.groups.get(group_names[code])
                if estimate_g is None:
                    problems.append(f"pane {result.end}: group "
                                    f"{group_names[code]} missing")
                    continue
                errors.append(abs(estimate_g - exact_g) / abs(exact_g))
        else:
            errors.append(abs(result.estimate - exact) / abs(exact))
    return errors, covered, len(results)


def same_answers(a, b) -> bool:
    """Bitwise equality of two runs' panes (floats compared exactly)."""
    return len(a) == len(b) and all(
        x.end == y.end and x.estimate == y.estimate and x.groups == y.groups
        and x.error == y.error and x.sampled_items == y.sampled_items
        and x.total_items == y.total_items
        for x, y in zip(a, b)
    )


class Tally:
    """Everything the timed runs of one benchmark invocation observed."""

    def __init__(self) -> None:
        # Per plan label: the engines workload runs two engines whose pane
        # timings differ, so each statistic is taken per engine first.
        self.walls = defaultdict(list)
        self.eps = defaultdict(list)
        self.first_panes = defaultdict(list)
        self.gap_p50 = defaultdict(list)
        self.gaps = defaultdict(list)
        self.events = 0
        self.errors, self.covered, self.panes = [], 0, 0
        self.attempted = self.failed = 0
        self.problems: list = []
        self.gen_s = 0.0
        self.setups: list = []
        self.setup_cpu_s = 0.0

    def add_run(self, label, plan, results, info, start, stamps, run_input) -> float:
        """Record one run; returns its wall seconds (0 if it failed)."""
        self.attempted += 1
        before = len(self.problems)
        _events, truth, group_names, last_ts = run_input
        errors, covered, panes = check_run(results, info, truth, group_names,
                                           self.problems, last_ts, plan.engine)
        if len(self.problems) > before or not stamps:
            self.failed += 1
            return 0.0
        wall = stamps[len(results) - 1] - start
        self.walls[label].append(wall)
        self.eps[label].append(len(run_input[0]) / wall)
        self.first_panes[label].append(stamps[0] - start)
        gaps = [b - a for a, b in zip(stamps, stamps[1:len(results)])]
        self.gap_p50[label].append(tracer.percentile(gaps, 50))
        self.gaps[label].extend(gaps)
        self.events += len(run_input[0])
        self.errors.extend(errors)
        self.covered += covered
        self.panes += panes
        return wall


def run_engine_workload(workload: str, seed: int, seconds: float, traced: bool):
    """Run timed repeats for ``seconds``.

    Returns ``(tally, layer_runs, traced_walls, recorder)``.
    """
    probes = SetupProbes(workload)
    try:
        return _run_repeats(workload, seed, seconds, traced, probes)
    finally:
        probes.close()


def _run_repeats(workload, seed, seconds, traced, probes):
    plans = build_plans(workload, seed)
    tally = Tally()
    rec = tracer.Recorder() if traced else None
    traced_walls, layer_runs = [], []
    begin = PERF()
    deadline = begin + seconds
    repeat = 0
    while repeat < 2 or PERF() < deadline:
        # Set-up probes run between repeats, never during one, spread over
        # the window so that their median is not taken in one slow moment.
        if PERF() - begin >= len(tally.setups) * seconds / SETUP_PROBES:
            _probe(probes, tally)
        start_gen = PERF()
        run_input = make_input(workload, seed * 1000 + repeat)
        events = run_input[0]
        tally.gen_s += PERF() - start_gen
        walls, untraced_results = [], []
        for label, plan in plans:
            try:
                results, info, start, stamps = timed_run(plan, events)
            except Exception as exc:  # a failed run is counted, not fatal
                tally.attempted += 1
                tally.failed += 1
                tally.problems.append(f"{type(exc).__name__}: {exc}")
                continue
            wall = tally.add_run(label, plan, results, info, start, stamps, run_input)
            if wall:
                walls.append(wall)
                untraced_results.append(results)
        complete = len(walls) == len(plans)
        wall_sum = sum(walls)
        if workload == "sharded" and repeat == 0 and complete:
            _check_against_direct(seed, events, untraced_results[0], tally)
        if traced and complete:
            layer_runs.append(_traced_repeat(rec, repeat, plans, events,
                                             untraced_results, tally))
            traced_walls.append((wall_sum, layer_runs[-1]["wall_s"]))
        del events, run_input
        repeat += 1
    while len(tally.setups) < SETUP_PROBES:
        _probe(probes, tally)
    return tally, layer_runs, traced_walls, rec


def _probe(probes: SetupProbes, tally: Tally) -> None:
    elapsed, cpu = probes.probe()
    tally.setups.append(elapsed)
    tally.setup_cpu_s += cpu


def _check_against_direct(seed, events, sharded_results, tally) -> None:
    """The sharded run must emit exactly the direct run's pane ends."""
    (_label, direct_plan), = build_plans("direct", seed)
    direct_results, _info, _start, _stamps = timed_run(direct_plan, events)
    if [r.end for r in direct_results] != [r.end for r in sharded_results]:
        tally.problems.append("sharded pane ends differ from the direct run's")


def _traced_repeat(rec, repeat, plans, events, untraced_results, tally) -> dict:
    """Re-run the same input with every layer wrapped; check equal answers."""
    import repro.runtime as rt

    counts_before = rec.counts()
    patches = tracer.instrument(rec)
    rec.set_request(repeat)
    wall, panes = 0.0, 0
    try:
        for (label, plan), expected in zip(plans, untraced_results):
            # Planning happens once per run inside the traced region so the
            # runtime.plan span measures it.
            traced_plan = rt.build_plan(
                plan.query, plan.window, plan.config, engine=plan.engine,
                strategy=plan.strategy, name=label,
            )
            results, _info, start, stamps = timed_run(traced_plan, events, rec)
            wall += stamps[len(results) - 1] - start
            panes += len(results)
            if not same_answers(results, expected):
                tally.problems.append(
                    f"traced {label} run {repeat} differs from the untraced run"
                )
    finally:
        patches.undo()
        rec.set_request(None)
    counts_after = rec.counts()
    delta = {k: v - counts_before.get(k, 0.0) for k, v in counts_after.items()}
    return {"request": repeat, "counts": delta, "wall_s": wall, "panes": panes}


def engine_metrics(tally: Tally) -> dict:
    """End-to-end metrics of an engine workload (units in BENCHMARK.json).

    Each timing statistic but ``pane_ms_p90`` is computed per run and
    reported at the run ranked at the 90th percentile by slowness (the
    second-slowest of 10 to 19 runs).  The host's CPU alternates between
    two speeds up to twice apart within tens of milliseconds, and the share
    of fast time drifts from minute to minute; a median over runs follows
    that share, while the slow end of the runs stays on the slower speed,
    which every measured window reaches (README.md, "Steadiness").
    ``pane_ms_p90`` is the 90th percentile of every pane gap of every run.
    Each statistic is taken per engine and averaged over the engines, so
    the ``engines`` workload's two differently paced drivers do not make it
    jump between them.

    On these workloads a "query" is one whole run: time-to-answer is its
    wall time, time-to-first-pane its first pane, ``sustained_qps`` the runs
    per second back to back at that wall, and the p99 values (per-layer
    metrics) are the slowest run's.  Accuracy and coverage pool every pane
    of every run.
    """

    def per_engine(samples, p=90, scale=1.0):
        return statistics.fmean(
            tracer.percentile(values, p) * scale for values in samples.values())

    wall = per_engine(tally.walls)
    return {
        "throughput_eps": per_engine(tally.eps, p=10),
        "first_pane_s": per_engine(tally.first_panes),
        "pane_ms_p50": per_engine(tally.gap_p50, scale=1000.0),
        "pane_ms_p90": per_engine(tally.gaps, scale=1000.0),
        "accuracy_loss": math.fsum(tally.errors) / len(tally.errors),
        "ci_coverage": tally.covered / tally.panes,
        "tta_p50_ms": wall * 1000.0,
        "tta_p99_ms": per_engine(tally.walls, p=100, scale=1000.0),
        "ttfp_p50_ms": per_engine(tally.first_panes, scale=1000.0),
        "ttfp_p99_ms": per_engine(tally.first_panes, p=100, scale=1000.0),
        "sustained_qps": 1.0 / wall,
    }


def engine_layers(rec, layer_runs, traced_walls) -> dict:
    """Per-layer metrics: medians per run over the traced runs."""
    requests = [run["request"] for run in layer_runs]
    counts = {
        name: statistics.median(run["counts"].get(name, 0.0) for run in layer_runs)
        for name in {k for run in layer_runs for k in run["counts"]}
    }
    layers = tracer.layer_metrics(tracer.analyse(rec), requests, counts)
    untraced = statistics.median(u for u, _t in traced_walls)
    traced = statistics.median(t for _u, t in traced_walls)
    layers.update({
        "runtime.panes": statistics.median(run["panes"] for run in layer_runs),
        "trace.wall_s": traced,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
    })
    return layers
