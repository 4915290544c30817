"""Set-up probe: import the program and build a workload's plans, then say so.

The engine workloads' ``setup_s`` is the time from launching this process
to its ``ready`` line: interpreter start, ``import repro`` and plan
construction, with no input generated.

With ``--launcher`` the process stays up instead and, for each line it
reads, launches one probe and prints ``<seconds to ready> <probe CPU
seconds>`` (or ``failed``).  The benchmark launches its probes through this
small process because a child forked from a large process reports that
process's resident set as its own peak, which would inflate the
benchmark's ``rss_peak_mb``.

Usage: ``python3 perfbench/setup_probe.py [--launcher] <workload>``
"""

import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def launch(workload: str) -> None:
    for _request in sys.stdin:
        cpu0 = child_cpu_s()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                                stdout=subprocess.PIPE, cwd=str(HERE.parent))
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        ok = proc.wait(timeout=60) == 0 and line.strip() == b"ready"
        print(f"{elapsed!r} {child_cpu_s() - cpu0!r}" if ok else "failed", flush=True)


def ready(workload: str) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import repro  # noqa: F401  (the import is what set-up pays for)
    import engine_workloads

    engine_workloads.build_plans(workload)
    print("ready", flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--launcher":
        launch(sys.argv[2])
    else:
        ready(sys.argv[1])
