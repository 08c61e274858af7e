"""Benchmark worker: one fresh interpreter per measured iteration.

    python3 perfbench/worker.py <job.json>

The job file holds {"mode": "cli" | "trace", "ops": [...], "mem_cap_bytes": n}.
The worker caps its own address space first, then imports ripsph and runs
every op of the iteration in order:

- "cli" calls ripsph.cli.main(argv) with nothing traced;
- "trace" replays the same op through the layers' public functions with a
  span around each call (see traced.py).

Each op is isolated by its own try block, so an exception, a nonzero exit
code or the memory cap fails that op only. The result is one JSON line on
stdout; the CLI's own stdout is captured per op and returned in it.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water RSS of this process image, in MiB.

    VmHWM restarts at exec. ru_maxrss does not: it keeps the parent's RSS
    at fork time, which would count the benchmark's own memory.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _run_op(fn) -> dict:
    """Run fn() with stdout captured; classify how it ended."""
    out = io.StringIO()
    error = None
    code = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = fn()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except MemoryError:
        error = "MemoryError: memory cap reached"
    except Exception as exc:  # any other failure is recorded, not fatal
        error = f"{type(exc).__name__}: {exc}"[:300]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if error is None and code != 0:
        error = f"exit code {code}"
    return {"error": error, "stdout": out.getvalue(), "wall_s": wall,
            "cpu_s": cpu}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    cap = job["mem_cap_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from ripsph import cli

    results = []
    if job["mode"] == "cli":
        for op in job["ops"]:
            results.append(_run_op(lambda: cli.main(list(op["argv"]))))
        print(json.dumps({"ops": results, "peak_rss_mb": peak_rss_mb()}))
        return 0

    from traced import Tracer, replay
    tracer = Tracer(peak_rss_mb)
    for op in job["ops"]:
        counters: dict = {}
        res = _run_op(lambda: replay(tracer, cli, op, counters))
        res["counters"] = counters
        results.append(res)
    print(json.dumps({"ops": results, "peak_rss_mb": peak_rss_mb(),
                      "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
