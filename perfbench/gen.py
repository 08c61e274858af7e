"""Seeded input generation for the ripsph benchmark.

Run as its own process before any timed worker starts:

    python3 perfbench/gen.py <workload> <seed> <out_dir>

It writes the workload's input files into <out_dir> and prints, as one
JSON list, the operations (CLI argument lists) to run on them. The
program under test never sees the seed; it gets only these files and
arguments. Only numpy is used here, so generation shares no code with
ripsph.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("pdb40_h2_full", "cloud4k_h1_sparse", "circle300_validate",
             "diagrams_distance")
DIAGRAM_SIZES = (100, 200, 800)


def _rng(workload: str, seed: int) -> np.random.Generator:
    # Each workload draws from its own stream, so adding a workload never
    # changes another workload's inputs for the same seed.
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _quantile(points: np.ndarray, q: float) -> float:
    """q-quantile of the pairwise Euclidean distances."""
    rows = [np.sqrt(((points[i + 1:] - points[i]) ** 2).sum(axis=1))
            for i in range(len(points) - 1)]
    return float(np.quantile(np.concatenate(rows), q))


def _write_points_csv(path: Path, points: np.ndarray) -> None:
    cols = ",".join(f"x{k}" for k in range(points.shape[1]))
    rows = [",".join(repr(float(x)) for x in row) for row in points]
    path.write_text(cols + "\n" + "\n".join(rows) + "\n")


def _helix_pdb(rng: np.random.Generator, residues: int = 40) -> str:
    """Alpha-helix backbone: CA on a 2.3 A radius, 100 degrees and 1.5 A
    rise per residue, with seeded jitter; N, C and O atoms sit around each
    CA so the parser has to skip them."""
    t = np.arange(residues)
    angle = np.deg2rad(100.0) * t
    ca = np.column_stack([2.3 * np.cos(angle), 2.3 * np.sin(angle), 1.5 * t])
    ca += rng.normal(0.0, 0.3, ca.shape)
    offsets = {"N": (-0.5, 1.2, -0.6), "C": (0.6, -1.0, 0.7),
               "O": (1.5, -1.3, 1.1)}
    lines = ["HEADER    SYNTHETIC HELIX"]
    serial = 1
    for r in range(residues):
        for name in ("N", "CA", "C", "O"):
            xyz = ca[r] if name == "CA" else (
                ca[r] + offsets[name] + rng.normal(0.0, 0.05, 3))
            lines.append(
                f"ATOM  {serial:5d}  {name:<3s} ALA A{r + 1:4d}    "
                f"{xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}  1.00  0.00"
                f"           {name[0]}")
            serial += 1
    lines += ["TER", "END"]
    return "\n".join(lines) + "\n"


def _diagram_pair(rng: np.random.Generator, n: int) -> tuple[str, str]:
    """Two dim-1 diagrams of n points each: b is a jittered copy of a with
    a tenth of its points replaced by short-lived ones, so the optimal
    matching mixes point-to-point and point-to-diagonal moves.

    Persistence is bounded (uniform, not heavy-tailed), so the bottleneck
    value, and with it the matching work, varies little from seed to seed.
    """
    birth = rng.uniform(0.0, 1.0, n)
    death = birth + rng.uniform(0.05, 0.6, n)
    b_birth = birth + rng.normal(0.0, 0.02, n)
    b_death = np.maximum(death + rng.normal(0.0, 0.02, n), b_birth)
    swap = rng.choice(n, size=n // 10, replace=False)
    b_birth[swap] = rng.uniform(0.0, 1.0, swap.size)
    b_death[swap] = b_birth[swap] + rng.uniform(0.0, 0.1, swap.size)

    def csv(bs, ds) -> str:
        rows = [f"1,{float(b)!r},{float(d)!r}" for b, d in zip(bs, ds)]
        return "dim,birth,death\n" + "\n".join(rows) + "\n"

    return csv(birth, death), csv(b_birth, b_death)


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the inputs; return the ops, each {"name", "command", "argv"}."""
    rng = _rng(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "pdb40_h2_full":
        src = out / "helix.pdb"
        src.write_text(_helix_pdb(rng))
        return [_run_op("run", src, out, ["--max-dimension", "2"])]
    if workload == "cloud4k_h1_sparse":
        points = rng.uniform(0.0, 1.0, (4000, 3))
        src = out / "cloud.csv"
        _write_points_csv(src, points)
        threshold = _quantile(points, 0.001)
        return [_run_op("run", src, out, ["--max-dimension", "1",
                                          "--threshold", repr(threshold)])]
    if workload == "circle300_validate":
        # One angle per equal arc: the noise stays local, so the complex
        # size, and with it the work, varies little from seed to seed.
        angle = 2.0 * np.pi * (np.arange(300) + rng.uniform(0.0, 1.0, 300)) / 300
        radius = 1.0 + rng.normal(0.0, 0.05, 300)
        points = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        src = out / "circle.csv"
        _write_points_csv(src, points)
        threshold = _quantile(points, 0.10)
        return [{"name": "validate", "command": "validate",
                 "argv": ["validate", str(src), "--threshold", repr(threshold),
                          "--max-dimension", "1"]}]
    if workload == "diagrams_distance":
        ops = []
        for n in DIAGRAM_SIZES:
            a, b = _diagram_pair(rng, n)
            pa, pb = out / f"a{n}.csv", out / f"b{n}.csv"
            pa.write_text(a)
            pb.write_text(b)
            for kind in ("bottleneck", "wasserstein"):
                ops.append({"name": f"{kind}{n}", "command": "distance",
                            "argv": ["distance", str(pa), str(pb),
                                     "--kind", kind, "--dim", "1"]})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _run_op(name: str, src: Path, out: Path, extra: list[str]) -> dict:
    return {"name": name, "command": "run",
            "argv": ["run", str(src), *extra,
                     "--diagram-csv", str(out / "diagram.csv"),
                     "--barcode-svg", str(out / "barcode.svg"),
                     "--diagram-svg", str(out / "diagram.svg")]}


if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps(generate(workload, seed, out_dir)))
