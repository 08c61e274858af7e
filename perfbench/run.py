"""ripsph benchmark: drives the ripsph CLI through seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all     # every workload, both modes

Run from the repository root. One run:

1. generates the workload's inputs from --seed in a separate process;
2. times `import ripsph.cli` in fresh interpreters (setup_s);
3. computes the correctness references (check.py);
4. repeats the workload's ops until --seconds have passed, each repetition
   in a fresh worker process whose address space is capped, and checks
   every output. With --trace 1 every repetition is followed by a traced
   replay of the same ops in another fresh worker.

Each metric is printed as `metric <name> <value> <unit>`; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
exit code is 1 when any output is wrong, 2 when the program is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Twice the largest address space a baseline worker reaches (VmPeak about
# 1.0 GiB on pdb40_h2_full), well below the machine's memory.
MEM_CAP_BYTES = 2 << 30
SETUP_PROBES = 3
# Every worker is killed at this many seconds after the run starts, so a
# run always ends within the 180 s an automated caller allows.
RUN_BUDGET_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

LAYER_CALLS = (
    "ingestion.parse_pdb", "ingestion.load_csv",
    "metrics.pairwise_distances", "metrics.validate_metric",
    "rips.build_rips", "rips.complex_at_scale",
    "persistence.reduce_filtration", "persistence.pairs_to_diagram",
    "persistence.significant_features", "persistence.write_diagram_csv",
    "persistence.read_diagram_csv",
    "core.validate_complex", "core.filtration_validate",
    "homology.betti_numbers",
    "distances.bottleneck_distance", "distances.wasserstein_distance",
    "render.render_barcode_svg", "render.render_diagram_svg",
    "render.write_betti_table",
)
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s", "success_rate": "ratio"}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_CALLS},
    "ingestion.points": "count",
    **{f"rips.simplices_d{k}": "count" for k in range(4)},
    "rips.simplices_per_s": "1/s", "rips.rss_after_mb": "MiB",
    "persistence.columns": "count", "persistence.pairs": "count",
    "persistence.essential": "count", "persistence.useful_ratio": "ratio",
    "persistence.rss_after_mb": "MiB",
    "homology.boundary_columns": "count",
    "distances.diagram_points": "count", "distances.failed": "count",
    "render.svg_bytes": "bytes",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
# Predicted share of traced wall time per workload (layer prefixes, floor).
PREDICTED_SPLIT = {
    "pdb40_h2_full": (("persistence",), 0.70),
    "cloud4k_h1_sparse": (("rips", "metrics"), 0.60),
    "circle300_validate": (("core", "homology"), 0.50),
    "diagrams_distance": (("distances",), 0.90),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _python(args: list[str], timeout: float) -> str:
    """Run a fresh interpreter to completion; return its stdout."""
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def measure_setup() -> list[float]:
    """Import time of ripsph.cli in fresh interpreters. The caller has
    imported it once already, so the bytecode cache is written and the
    files are in the page cache."""
    probe = ("import time; t = time.perf_counter(); import ripsph.cli; "
             "print(time.perf_counter() - t)")
    return [float(_python(["-c", probe], 60)) for _ in range(SETUP_PROBES)]


def run_worker(mode: str, ops: list[dict], job_path: Path, deadline: float) -> dict:
    """One fresh worker over all ops. A worker that dies, hits the memory
    cap outside an op, or is still running at the deadline fails every op
    it was given."""
    job_path.write_text(json.dumps({"mode": mode, "ops": ops,
                                    "mem_cap_bytes": MEM_CAP_BYTES}))
    start = time.perf_counter()
    cpu_start = _children_cpu_s()
    try:
        return json.loads(_python([str(BENCH / "worker.py"), str(job_path)],
                                  max(deadline - start, 1.0)).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        # The ops' own times are lost: charge the whole worker to the first.
        lost = [{"error": f"worker failed: {exc}"[:500], "stdout": "",
                 "wall_s": 0.0, "cpu_s": 0.0, "counters": {}} for _ in ops]
        lost[0].update(wall_s=time.perf_counter() - start,
                       cpu_s=_children_cpu_s() - cpu_start)
        return {"ops": lost, "peak_rss_mb": None, "spans": []}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _remove_outputs(ops: list[dict]) -> None:
    for op in ops:
        argv = op["argv"]
        for flag in ("--diagram-csv", "--barcode-svg", "--diagram-svg"):
            if flag in argv:
                Path(argv[argv.index(flag) + 1]).unlink(missing_ok=True)


class Tally:
    """Attempted, failed and wrong ops of one run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def record(self, name: str, error: str | None, mismatch: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{name}: {error}")
        elif mismatch is not None:
            self.failed += 1
            self.mismatches.append(f"{name}: {mismatch}")


def _verify(expect, stdout: str) -> str | None:
    try:
        return expect.check(stdout)
    except (ValueError, IndexError) as exc:
        return f"unparseable output ({exc})"


def _self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the time its children cover."""
    child_time: dict[int, float] = {}
    for sid, name, parent, op, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, name, parent, op, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return out


def layer_metrics(ops: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    selves = _self_times(traced["spans"])
    m = {f"{name}_s": selves.get(name, 0.0) for name in LAYER_CALLS}
    m["cli.self_s"] = sum(v for k, v in selves.items() if k.startswith("cli."))
    total: dict = {}
    for op in traced["ops"]:
        for key, value in op["counters"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
        for k, n in enumerate(op["counters"].get("simplices", [])):
            total[f"d{k}"] = total.get(f"d{k}", 0) + n
    m["ingestion.points"] = total.get("points", 0)
    for k in range(4):
        m[f"rips.simplices_d{k}"] = total.get(f"d{k}", 0)
    rips_s = m["rips.build_rips_s"]
    m["rips.simplices_per_s"] = total.get("entries", 0) / rips_s if rips_s else 0.0
    m["rips.rss_after_mb"] = total.get("rips_rss_mb", 0.0)
    m["persistence.columns"] = total.get("columns", 0)
    m["persistence.pairs"] = total.get("pairs", 0)
    m["persistence.essential"] = total.get("essential", 0)
    pairs = total.get("pairs", 0)
    m["persistence.useful_ratio"] = total.get("useful_pairs", 0) / pairs if pairs else 0.0
    m["persistence.rss_after_mb"] = total.get("reduce_rss_mb", 0.0)
    m["homology.boundary_columns"] = total.get("boundary_columns", 0)
    m["distances.diagram_points"] = total.get("diagram_points", 0)
    m["distances.failed"] = sum(1 for op, out in zip(ops, traced["ops"])
                                if op["command"] == "distance" and out["error"])
    m["render.svg_bytes"] = total.get("svg_bytes", 0)
    m["traced_wall_s"] = total.get("traced_wall_s", 0.0)
    return m


def _compare_traced(op: dict, cli_out: dict, traced_out: dict, expect) -> str | None:
    """The traced replay must reproduce the CLI run's outputs exactly."""
    if traced_out["stdout"] != cli_out["stdout"]:
        return "traced replay printed different output than the CLI"
    counters = traced_out["counters"]
    if op["command"] == "run" and counters.get("csv_sha256") != cli_out.get("diagram_sha256"):
        return "traced replay produced a different diagram than the CLI"
    if op["command"] == "distance":
        return expect.check_value(counters["value"])
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import check
    import numpy
    import ripsph.cli  # noqa: F401  warms the caches before measure_setup
    import scipy

    deadline = time.perf_counter() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = json.loads(_python([str(BENCH / "gen.py"), workload, str(seed),
                                  str(work)], 120))
        print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
              f"numpy={numpy.__version__} scipy={scipy.__version__} " +
              " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS))
        print(f"ops {workload}: " + " | ".join(" ".join(op["argv"]) for op in ops))
        setup = measure_setup()
        expect = check.expectations(workload, seed, ops)
        tally = Tally()
        reps: list[dict] = []
        layers: list[dict] = []
        spans: list[list] = []
        start = time.perf_counter()
        while True:
            _remove_outputs(ops)
            res = run_worker("cli", ops, work / "job.json", deadline)
            for op, out in zip(ops, res["ops"]):
                mismatch = None
                if out["error"] is None:
                    mismatch = _verify(expect[op["name"]], out["stdout"])
                    if op["command"] == "run" and mismatch is None:
                        out["diagram_sha256"] = check.sha256(
                            expect[op["name"]].diagram.read_bytes())
                tally.record(op["name"], out["error"], mismatch)
            reps.append({"wall_s": sum(o["wall_s"] for o in res["ops"]),
                         "cpu_s": sum(o["cpu_s"] for o in res["ops"]),
                         "peak_rss_mb": res["peak_rss_mb"]})
            if trace:
                _remove_outputs(ops)
                traced = run_worker("trace", ops, work / "job.json", deadline)
                for op, cli_out, out in zip(ops, res["ops"], traced["ops"]):
                    mismatch = None
                    if out["error"] is None:
                        mismatch = _verify(expect[op["name"]], out["stdout"])
                        if mismatch is None and cli_out["error"] is None:
                            mismatch = _compare_traced(op, cli_out, out, expect[op["name"]])
                    tally.record(f"traced {op['name']}", out["error"], mismatch)
                layers.append(layer_metrics(ops, traced))
                spans.append(traced["spans"])
            now = time.perf_counter()
            if now - start >= seconds or now >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it

    median = statistics.median
    if trace:
        metrics = {name: median(rep[name] for rep in layers)
                   for name in [*PER_LAYER_UNITS, "traced_wall_s"]
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (metrics["traced_wall_s"]
                                       - median(rep["wall_s"] for rep in reps))
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
            {"fields": ["id", "name", "parent", "op", "start", "end"],
             "repetitions": spans}))
    else:
        metrics = {name: median(rep[name] for rep in reps) for name in ("wall_s", "cpu_s")}
        peaks = [rep["peak_rss_mb"] for rep in reps if rep["peak_rss_mb"] is not None]
        metrics["peak_rss_mb"] = median(peaks) if peaks else 0.0
        metrics["setup_s"] = median(setup)
        metrics["success_rate"] = (tally.attempted - tally.failed) / tally.attempted
        units = END_TO_END_UNITS
    for line in tally.errors + tally.mismatches:
        print(f"failed {line}")
    print(f"repetitions {len(reps)}  attempted {tally.attempted}  failed {tally.failed}  "
          f"error_rate {tally.failed / tally.attempted:.4f}")
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    return {"correct": not tally.mismatches, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
            "shares": _shares(metrics) if trace else None}


def _shares(metrics: dict) -> dict[str, float]:
    """Share of the median traced wall time spent in each layer's calls."""
    wall = metrics["traced_wall_s"] or 1.0
    shares: dict[str, float] = {}
    for name in LAYER_CALLS:
        prefix = name.split(".")[0]
        shares[prefix] = shares.get(prefix, 0.0) + metrics[f"{name}_s"] / wall
    shares["cli"] = metrics["cli.self_s"] / wall
    return shares


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; prints the predicted layer split."""
    summary, correct = {}, True
    for workload in WORKLOADS:
        for trace in (False, True):
            print(f"== {workload} trace={int(trace)}", flush=True)
            result = run_workload(workload, seed, seconds, trace)
            correct &= result["correct"]
            shares = result.pop("shares")
            if shares:
                prefixes, floor = PREDICTED_SPLIT[workload]
                got = sum(shares[p] for p in prefixes)
                print("split " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
                print(f"predicted {'+'.join(prefixes)} >= {floor:.2f} of traced wall: "
                      f"{got:.3f} {'met' if got >= floor else 'NOT met'}")
            summary[f"{workload}/trace{int(trace)}"] = result
    print(json.dumps(summary))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(TESTS)]
    missing = [p for p in (SRC / "ripsph" / "cli.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: program files missing: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result.pop("shares")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
