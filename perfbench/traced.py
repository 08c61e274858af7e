"""Traced replay of one ripsph CLI op through the layers' public functions.

Each replay follows the call order of cli._cmd_run, cli._cmd_validate or
cli._cmd_distance and wraps every call into a layer in a span timed from
the outside; the program itself is not instrumented. Spans are kept in
memory as [id, name, parent, op, start, end] and returned by the worker at
the end. Apart from two peak-RSS samples between layer calls, counters
are taken after the op's root span has closed, so counting costs neither
the layers nor cli.self_s.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import time
from collections import Counter
from pathlib import Path

from ripsph import distances, ingestion, metrics, persistence, render, rips
from ripsph.core import validate_complex
from ripsph.homology import betti_numbers


class Tracer:
    """Spans of one worker; rss_mb() samples the worker's peak RSS."""

    def __init__(self, rss_mb) -> None:
        self.rss_mb = rss_mb
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = ""

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self._op = op
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, parent, self._op, time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][5] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def duration(self, sid: int) -> float:
        return self.spans[sid][5] - self.spans[sid][4]


def _load_points(t: Tracer, args):
    text = Path(args.input).read_text()
    fmt = args.format
    if fmt is None:
        fmt = "pdb" if Path(args.input).suffix.lower() in (".pdb", ".ent") else "csv"
    if fmt == "pdb":
        return t.call("ingestion.parse_pdb", ingestion.parse_pdb, text, chain=args.chain)
    return t.call("ingestion.load_csv", ingestion.load_csv, text)


def _replay_run(t: Tracer, args, keep: dict) -> None:
    points = _load_points(t, args)
    matrix = t.call("metrics.pairwise_distances", metrics.pairwise_distances, points)
    threshold = args.threshold
    if threshold is None:
        threshold = float(matrix.max())
    elif args.scale_convention == "radius":
        threshold *= 2.0
    f = t.call("rips.build_rips", rips.build_rips, matrix,
               rips.RipsParams(args.max_dimension, threshold))
    keep.update(points=points, filtration=f, rips_rss=t.rss_mb())
    r = t.call("persistence.reduce_filtration", persistence.reduce_filtration, f)
    keep.update(reduction=r, reduce_rss=t.rss_mb())
    diagram = t.call("persistence.pairs_to_diagram", persistence.pairs_to_diagram,
                     r, f, max_dim=args.max_dimension)
    significant = t.call("persistence.significant_features",
                         persistence.significant_features, diagram,
                         args.min_persistence)
    csv = t.call("persistence.write_diagram_csv", persistence.write_diagram_csv, diagram)
    if args.diagram_csv:
        Path(args.diagram_csv).write_text(csv)
    svgs = []
    for name, path in (("render_barcode_svg", args.barcode_svg),
                       ("render_diagram_svg", args.diagram_svg)):
        if path:
            svg = t.call(f"render.{name}", getattr(render, name), significant,
                         render.RenderOptions())
            Path(path).write_text(svg)
            svgs.append(svg)
    counts = [0] * (args.max_dimension + 1)
    for p in significant:
        if p.dimension <= args.max_dimension:
            counts[p.dimension] += 1
    table = t.call("render.write_betti_table", render.write_betti_table, tuple(counts))
    print(table, end="")
    keep.update(csv=csv, svgs=svgs)


def _replay_validate(t: Tracer, args, keep: dict) -> None:
    points = _load_points(t, args)
    matrix = t.call("metrics.pairwise_distances", metrics.pairwise_distances, points)
    violations = t.call("metrics.validate_metric", metrics.validate_metric, matrix)
    print(f"points: {points.shape[0]}  dimension: {points.shape[1]}")
    print(f"metric violations: {len(violations)}")
    for v in violations:
        print(f"  {v}")
    keep["points"] = points
    if args.threshold is None:
        return
    f = t.call("rips.build_rips", rips.build_rips, matrix,
               rips.RipsParams(args.max_dimension, args.threshold))
    keep.update(filtration=f, rips_rss=t.rss_mb())
    complex_ = t.call("rips.complex_at_scale", rips.complex_at_scale, f, args.threshold)
    complex_violations = t.call("core.validate_complex", validate_complex, complex_)
    filtration_violations = t.call("core.filtration_validate", f.validate)
    print(f"filtration entries: {len(f)}")
    print(f"complex violations: {len(complex_violations)}")
    for v in complex_violations + filtration_violations:
        print(f"  {v}")
    complex_ = t.call("rips.complex_at_scale", rips.complex_at_scale, f, args.threshold)
    betti = t.call("homology.betti_numbers", betti_numbers, complex_, args.max_dimension)
    print(t.call("render.write_betti_table", render.write_betti_table, betti), end="")
    keep["boundary_columns"] = sum(complex_.counts()[1:args.max_dimension + 2])


def _replay_distance(t: Tracer, args, keep: dict) -> None:
    da = t.call("persistence.read_diagram_csv", persistence.read_diagram_csv,
                Path(args.a).read_text())
    db = t.call("persistence.read_diagram_csv", persistence.read_diagram_csv,
                Path(args.b).read_text())
    keep["diagram_points"] = sum(1 for d in (da, db) for p in d.in_dimension(args.dim)
                                 if not p.is_essential)
    fn = getattr(distances, f"{args.kind}_distance")
    value = t.call(f"distances.{args.kind}_distance", fn, da, db, args.dim)
    keep["value"] = value
    print("inf" if math.isinf(value) else format(value, ".9g"))


_REPLAYS = {"run": _replay_run, "validate": _replay_validate,
            "distance": _replay_distance}


def replay(t: Tracer, cli, op: dict, counters: dict) -> int:
    """Replay op under a root span "cli.<command>"; fill counters after it
    closes, even when a layer call raised."""
    keep: dict = {}
    root = len(t.spans)
    try:
        with t.span(f"cli.{op['command']}", op=op["name"]):
            args = cli.build_parser().parse_args(list(op["argv"]))
            _REPLAYS[op["command"]](t, args, keep)
    finally:
        _count(t, root, keep, counters)
    return 0


def _count(t: Tracer, root: int, keep: dict, counters: dict) -> None:
    counters["traced_wall_s"] = t.duration(root)
    if "points" in keep:
        counters["points"] = int(keep["points"].shape[0])
    f = keep.get("filtration")
    if f is not None:
        dims = Counter(s.dimension for s, _ in f.entries)
        counters["simplices"] = [dims.get(k, 0) for k in range(4)]
        counters["entries"] = len(f)
        counters["rips_rss_mb"] = keep["rips_rss"]
    r = keep.get("reduction")
    if r is not None:
        useful = sum(1 for death, birth in r.pairing.items()
                     if f.entries[death][1] != f.entries[birth][1])
        counters.update(columns=len(f), pairs=len(r.pairing),
                        essential=len(r.essential), useful_pairs=useful,
                        reduce_rss_mb=keep["reduce_rss"])
    if "csv" in keep:
        counters["csv_sha256"] = hashlib.sha256(keep["csv"].encode()).hexdigest()
        counters["svg_bytes"] = sum(len(s.encode()) for s in keep["svgs"])
    for key in ("boundary_columns", "diagram_points", "value"):
        if key in keep:
            counters[key] = keep[key]
