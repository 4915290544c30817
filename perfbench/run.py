"""The repository benchmark: one command, four workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload direct --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``direct``  — `NativeStreamApproxSystem`'s plan (direct engine, OASRS,
  chunk 4096, one process) over the §5.1 Gaussian stream, ungrouped mean.
* ``sharded`` — the same input and query with one shard worker per core.
* ``engines`` — the §6.3 taxi query (grouped mean per borough) on the
  batched (Spark-StreamApprox) and then the pipelined (Flink-StreamApprox)
  engine, item at a time, over the same fresh input.
* ``service`` — open-loop queries over TCP to a `QueryService` in its own
  process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` also runs every input a second time with each layer's entry
points wrapped by ``perfbench/tracer.py`` and reports the per-layer metrics;
the two runs' answers must be bitwise equal.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value": v, "unit": u}}``).  A failed correctness
check prints the problems to standard error and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("direct", "sharded", "engines", "service")


def _metric_units(key: str) -> dict:
    """``{name: unit}`` of one metric list in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def _setup_paths() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program sources under {ROOT / 'src'}; run from a "
            "checkout of the repository\n"
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    usage = [resource.getrusage(who) for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def stop_children() -> None:
    """Stop and reap every process the run started, the program's included.

    The shard pool's workers are joined by the executor's ``close``; any
    left by a failed run are stopped here.  The shared-memory resource
    tracker the pool starts would outlive this process until its last
    writer exits, so it is stopped and waited for as well.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_engine(workload, seed, seconds, traced):
    import engine_workloads as ew

    cpu0 = cpu_seconds()
    tally, layer_runs, traced_walls, rec = ew.run_engine_workload(
        workload, seed, seconds, traced
    )
    cpu = cpu_seconds() - cpu0 - tally.setup_cpu_s
    end_to_end = ew.engine_metrics(tally) if tally.events else {}
    end_to_end["setup_s"] = statistics.median(tally.setups)
    end_to_end["rss_peak_mb"] = peak_rss_mb()
    layers = {}
    if traced and layer_runs:
        layers = ew.engine_layers(rec, layer_runs, traced_walls)
        import tracer

        out = ROOT / tracer.OUT_DIR
        out.mkdir(exist_ok=True)
        tracer.chrome_trace(rec, out / f"trace-{workload}-{seed}.json")
    layers.update({
        "loadgen.gen_s": tally.gen_s,
        "loadgen.lateness_ms_max": 0.0,
        "proc.cpu_s": cpu,
        "failed_ratio": tally.failed / max(1, tally.attempted),
    })
    return tally.attempted, tally.failed, tally.problems, end_to_end, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _setup_paths()

    traced = bool(args.trace)
    if args.workload == "service":
        import service_workload

        attempted, failed, problems, end_to_end, layers = service_workload.run(
            args.seed, args.seconds, traced)
    else:
        attempted, failed, problems, end_to_end, layers = run_engine(
            args.workload, args.seed, args.seconds, traced)

    end_to_end_units = _metric_units("end_to_end")
    missing = [m for m in end_to_end_units if m not in end_to_end]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    # Tail latencies are per-layer metrics: on a shared 2-core host their
    # run-to-run spread is far wider than any regression bound (see
    # README.md), so they are reported, from the untraced runs, but not gated.
    for name in ("tta_p99_ms", "ttfp_p99_ms"):
        if name in end_to_end:
            layers.setdefault(name, end_to_end.pop(name))
    names = _metric_units("per_layer") if traced else end_to_end_units
    source = layers if traced else end_to_end
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    for problem in problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    for name, entry in metrics.items():
        print(f"{name:>30} {entry['value']:>16.6g} {entry['unit']}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
