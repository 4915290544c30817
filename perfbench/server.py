"""The ``service`` workload's server process: a `QueryService` on TCP.

Started by ``service_workload.py``.  It imports the program, builds the
service with the benchmark's tenants, registers the shared sources made from
``--seed``, listens on a free localhost port and prints one JSON line
``{"port": ..., "gen_s": ...}``.  When its standard input closes it drains
the service, prints one JSON line of statistics (the service's metrics
snapshot, its own peak memory and CPU time and, with ``--trace 1``, the
per-layer summary, also written as a Chrome trace) and exits.

Usage: ``python3 perfbench/server.py --seed N --trace 0|1``
"""

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


async def serve(sources, gen_s, rec) -> dict:
    from repro.service import QueryService, TenantScheduler

    import service_workload as sw

    service = QueryService(
        scheduler=TenantScheduler(capacity=sw.CAPACITY), max_workers=sw.WORKERS
    )
    for tenant, budget in sw.TENANTS.items():
        service.register_tenant(tenant, budget)
    for name, events in sources.items():
        service.hub.register(name, events)
    _host, port = await service.serve_tcp("127.0.0.1", 0)
    print(json.dumps({"port": port, "gen_s": gen_s}), flush=True)

    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    await service.close()
    stats = {"service": service.metrics_snapshot()["service"]}
    if rec is not None:
        stats["layers"] = sw.server_layers(rec)
    return stats


def write_trace(rec, seed: int) -> None:
    import tracer

    out = HERE.parent / tracer.OUT_DIR
    out.mkdir(exist_ok=True)
    tracer.chrome_trace(rec, out / f"trace-service-{seed}.json")


def main() -> int:
    parser = argparse.ArgumentParser(description="service workload server")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import repro  # noqa: F401  (set-up includes the program import)

    import service_workload as sw

    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.instrument(rec, service=True)
    start = time.perf_counter()
    sources = {name: made[0] for name, made in sw.shared_sources(args.seed).items()}
    gen_s = time.perf_counter() - start
    stats = asyncio.run(serve(sources, gen_s, rec))
    if rec is not None:
        write_trace(rec, args.seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats["rss_mb"] = usage.ru_maxrss / 1024.0
    stats["cpu_s"] = usage.ru_utime + usage.ru_stime
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
