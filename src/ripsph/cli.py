"""Command-line pipeline: point cloud -> Rips filtration -> persistence.

Subcommands: run, betti, distance, pdb-extract, validate. Exit codes:
0 success, 2 input parse failure, 3 invalid configuration or out of memory.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionTooLarge, RipsphError
from .ingestion import load_csv, parse_pdb, write_csv
from .metrics import _cloud_violations, pairwise_distances
from .persistence import (betti_at_scale, read_diagram_csv,
                          significant_features, write_diagram_csv)
from .render import (RenderOptions, render_barcode_svg, render_diagram_svg,
                     write_betti_table)
from .rips import _counts_and_betti, cloud_persistence
from .distances import bottleneck_distance, wasserstein_distance

EXIT_PARSE = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    pass


def _load_points(path: str, fmt: str | None, chain: str | None) -> np.ndarray:
    p = Path(path)
    if fmt is None:
        fmt = "pdb" if p.suffix.lower() in (".pdb", ".ent") else "csv"
    text = p.read_text()
    if fmt == "pdb":
        return parse_pdb(text, chain=chain)
    return load_csv(text)


def _check_config(args: argparse.Namespace) -> None:
    """Reject a bad configuration of any subcommand before its input is
    read or its output written. NaN fails every comparison, and a negative
    --scale is legal."""
    for name in ("max_dimension", "dim", "threshold", "min_persistence"):
        value = getattr(args, name, None)
        if value is not None and not value >= 0:
            raise ConfigError(f"{name.replace('_', '-')} must be >= 0")
    if getattr(args, "scale", None) is not None and math.isnan(args.scale):
        raise ConfigError("scale must not be NaN")


def _cmd_run(args: argparse.Namespace) -> int:
    points = _load_points(args.input, args.format, args.chain)
    threshold = args.threshold
    if args.scale_convention == "radius":
        threshold *= 2.0  # diagrams always report diameter-convention scales
    diagram = cloud_persistence(points, args.max_dimension, threshold)
    significant = significant_features(diagram, args.min_persistence)

    if args.diagram_csv:
        Path(args.diagram_csv).write_text(write_diagram_csv(diagram))
    if args.barcode_svg:
        Path(args.barcode_svg).write_text(render_barcode_svg(significant, RenderOptions()))
    if args.diagram_svg:
        Path(args.diagram_svg).write_text(render_diagram_svg(significant, RenderOptions()))
    counts = np.bincount(significant.dims, minlength=args.max_dimension + 1)
    table = write_betti_table(tuple(counts.tolist()))
    if args.betti_table:
        Path(args.betti_table).write_text(table)
    print(table, end="")
    if args.scale is not None:
        betti = betti_at_scale(diagram, args.scale, max_dim=args.max_dimension)
        print(f"at scale {args.scale}: " +
              " ".join(f"beta_{k}={b}" for k, b in enumerate(betti)))
    return 0


def _cmd_betti(args: argparse.Namespace) -> int:
    diagram = read_diagram_csv(Path(args.diagram).read_text())
    betti = betti_at_scale(diagram, args.scale)
    print(" ".join(f"beta_{k}={b}" for k, b in enumerate(betti)))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    da = read_diagram_csv(Path(args.a).read_text())
    db = read_diagram_csv(Path(args.b).read_text())
    fn = bottleneck_distance if args.kind == "bottleneck" else wasserstein_distance
    value = fn(da, db, args.dim)
    print("inf" if math.isinf(value) else format(value, ".9g"))
    return 0


def _cmd_pdb_extract(args: argparse.Namespace) -> int:
    points = _load_points(args.input, "pdb", args.chain)
    csv = write_csv(points)
    if args.output:
        Path(args.output).write_text(csv)
    else:
        print(csv, end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    points = _load_points(args.input, args.format, args.chain)
    matrix = pairwise_distances(points)
    violations = _cloud_violations(points, matrix)
    if args.threshold is not None:  # may raise: nothing printed yet
        counts, betti = _counts_and_betti(matrix, args.max_dimension, args.threshold)
    print(f"points: {points.shape[0]}  dimension: {points.shape[1]}")
    print(f"metric violations: {len(violations)}")
    for v in violations:
        print(f"  {v}")
    if args.threshold is not None:
        print(f"filtration entries: {sum(counts)}")
        # a clique complex holds every face of each of its cliques: closed
        print("complex violations: 0")
        print(write_betti_table(betti), end="")
    return 0


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="point cloud file (PDB or CSV)")
    p.add_argument("--format", choices=("pdb", "csv"),
                   help="input format (default: by file extension)")
    p.add_argument("--chain", help="PDB chain id filter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripsph",
        description="Persistent homology of point clouds via Vietoris-Rips filtrations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline: points to diagram and outputs")
    _add_input_args(run)
    run.add_argument("--max-dimension", type=int, default=2)
    run.add_argument("--threshold", type=float, default=math.inf,
                     help="max filtration scale (default: inf, every distance)")
    run.add_argument("--scale-convention", choices=("diameter", "radius"),
                     default="diameter",
                     help="radius doubles the threshold; outputs stay in diameter scale")
    run.add_argument("--min-persistence", type=float, default=0.0)
    run.add_argument("--diagram-csv", help="write full diagram CSV here")
    run.add_argument("--barcode-svg", help="write barcode SVG here")
    run.add_argument("--diagram-svg", help="write diagram SVG here")
    run.add_argument("--betti-table", help="write Betti table text here")
    run.add_argument("--scale", type=float, default=None,
                     help="also report Betti numbers at this scale")
    run.set_defaults(fn=_cmd_run)

    betti = sub.add_parser("betti", help="Betti numbers at a scale, from a diagram CSV")
    betti.add_argument("diagram", help="diagram CSV path")
    betti.add_argument("--scale", type=float, required=True)
    betti.set_defaults(fn=_cmd_betti)

    dist = sub.add_parser("distance", help="distance between two diagram CSVs")
    dist.add_argument("a")
    dist.add_argument("b")
    dist.add_argument("--kind", choices=("bottleneck", "wasserstein"),
                      default="bottleneck")
    dist.add_argument("--dim", type=int, default=1)
    dist.set_defaults(fn=_cmd_distance)

    extract = sub.add_parser("pdb-extract", help="CA point cloud CSV from a PDB file")
    extract.add_argument("input", help="PDB file")
    extract.add_argument("--chain", help="PDB chain id filter")
    extract.add_argument("--output", help="CSV output path (default: stdout)")
    extract.set_defaults(fn=_cmd_pdb_extract)

    validate = sub.add_parser("validate", help="metric and complex diagnostics")
    _add_input_args(validate)
    validate.add_argument("--threshold", type=float, default=None,
                          help="also count the clique filtration up to this scale "
                               "and report the Betti numbers at it")
    validate.add_argument("--max-dimension", type=int, default=2)
    validate.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_config(args)
        return args.fn(args)
    except (ConfigError, DimensionTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a run too large for the machine is a configuration to shrink
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (RipsphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
