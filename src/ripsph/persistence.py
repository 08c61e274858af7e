"""Persistence pairs via boundary-matrix column reduction, and diagrams.

`reduce_filtration` is the general-filtration path: it takes any
`Filtration` and reduces int-bitset columns left to right with the
clearing ("twist") optimization: dimensions are reduced top-down and
columns already known to be births are zeroed unreduced, which provably
yields the same pairing (Chen and Kerber, "Persistent homology computation
with a twist", 2011). Rips filtrations of point clouds go through
`rips.rips_persistence` instead, which never lists their simplices; this
path stays their referee in tests.
Diagrams are filtered, counted, written and read as numpy columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .core import Filtration, PersistenceDiagram, PersistencePair
from .errors import RipsphError
from .homology import _boundary_columns, _reduce
from .ingestion import _numbered_lines


@dataclass(frozen=True)
class ReductionResult:
    """pairing maps death filtration index -> birth filtration index;
    essential holds filtration indices of classes that never die."""

    pairing: dict[int, int]
    essential: frozenset[int]


def reduce_filtration(f: Filtration) -> ReductionResult:
    """Column reduction: repeatedly cancel a column's lowest one against the
    earlier column owning that pivot; surviving lowest ones are (birth,
    death) pairs, zero columns not used as births are essential."""
    columns, by_dim = _boundary_columns(s for s, _ in f.entries)[:2]
    pairing: dict[int, int] = {}
    for d in range(max(by_dim, default=0), 0, -1):
        owner: dict[int, int] = {}  # row among the (d-1)-simplices -> column
        _reduce(columns, by_dim[d], owner)
        for row, death in owner.items():
            birth = by_dim[d - 1][row]
            pairing[death] = birth
            columns[birth] = 0  # a known birth column needs no reduction
    births = set(pairing.values())
    essential = frozenset(
        j for j, c in enumerate(columns) if c == 0 and j not in births)
    return ReductionResult(pairing, essential)


def pairs_to_diagram(r: ReductionResult, f: Filtration,
                     max_dim: int | None = None) -> PersistenceDiagram:
    """Convert index pairs to (dimension, birth scale, death scale) points;
    pairs born and killed at the same scale are dropped.

    max_dim truncates the diagram; a Rips filtration built for homology
    through k carries dimension-(k+1) simplices whose own classes are
    artifacts and must be cut off at max_dim = k.
    """
    pairs = []
    for death, birth in r.pairing.items():
        simplex, birth_scale = f.entries[birth]
        _, death_scale = f.entries[death]
        if death_scale == birth_scale:
            continue
        if max_dim is not None and simplex.dimension > max_dim:
            continue
        pairs.append(PersistencePair(simplex.dimension, birth_scale, death_scale))
    for i in r.essential:
        simplex, scale = f.entries[i]
        if max_dim is not None and simplex.dimension > max_dim:
            continue
        pairs.append(PersistencePair(simplex.dimension, scale, math.inf))
    return PersistenceDiagram(pairs)


def persistence_diagram(f: Filtration,
                        max_dim: int | None = None) -> PersistenceDiagram:
    """One-call reduction of a filtration to its diagram."""
    return pairs_to_diagram(reduce_filtration(f), f, max_dim=max_dim)


def betti_at_scale(d: PersistenceDiagram, s: float,
                   max_dim: int | None = None) -> tuple[int, ...]:
    """beta_k at scale s: pairs alive on the half-open interval
    birth <= s < death; an essential class is alive at every s >= birth,
    s = inf included."""
    if math.isnan(s):
        raise ValueError("scale must not be NaN")
    if max_dim is None:
        max_dim = max(d.max_dimension, 0)
    alive = ((d.dims <= max_dim) & (d.births <= s)
             & ((s < d.deaths) | np.isinf(d.deaths)))
    return tuple(np.bincount(d.dims[alive], minlength=max_dim + 1).tolist())


def significant_features(d: PersistenceDiagram,
                         min_persistence: float) -> PersistenceDiagram:
    """Drop pairs of persistence below the threshold; essential classes,
    of persistence inf, always survive."""
    if not min_persistence >= 0:  # also rejects NaN
        raise ValueError("min_persistence must be >= 0")
    keep = d.deaths - d.births >= min_persistence
    return PersistenceDiagram._columns(d.dims[keep], d.births[keep], d.deaths[keep])


def write_diagram_csv(d: PersistenceDiagram) -> str:
    """CSV with header dim,birth,death; death 'inf' for essential classes.
    Scales are written as repr(float), which reads back exactly."""
    rows = [f"{k},{b!r},{e!r}" for k, b, e in zip(
        d.dims.tolist(), d.births.tolist(), d.deaths.tolist())]
    return "\n".join(["dim,birth,death", *rows]) + "\n"


def _check_row(lineno: int, line: str) -> None:
    """Raise the error of one body line of a diagram CSV, if it has one."""
    fields = line.split(",")
    if len(fields) != 3:
        raise RipsphError(f"line {lineno}: expected 3 fields")
    try:
        dim, birth, death = np.intp(int(fields[0])), float(fields[1]), float(fields[2])
    except (ValueError, OverflowError):
        raise RipsphError(f"line {lineno}: unparseable pair") from None
    try:
        PersistencePair(dim, birth, death)
    except ValueError as exc:
        raise RipsphError(f"line {lineno}: {exc}") from None


def read_diagram_csv(source: Union[str, IO]) -> PersistenceDiagram:
    """The diagram of a CSV as write_diagram_csv writes it. Blank lines are
    skipped but counted: an error names the first bad physical line."""
    lines = _numbered_lines(source)
    if not lines or lines[0][1].strip() != "dim,birth,death":
        raise RipsphError("diagram CSV must start with header 'dim,birth,death'")
    rows = [ln.split(",") for _, ln in lines[1:]]
    try:
        if any(len(r) != 3 for r in rows):
            raise ValueError
        k, b, d = zip(*rows) if rows else ((), (), ())
        dims = np.array(list(map(int, k)), np.intp)
        births = np.array(list(map(float, b)))
        deaths = np.array(list(map(float, d)))
        # the checks of PersistencePair; NaN fails deaths >= births
        if not ((dims >= 0) & np.isfinite(births) & (deaths >= births)).all():
            raise ValueError
    except (ValueError, OverflowError):
        for lineno, line in lines[1:]:
            _check_row(lineno, line)
        raise
    return PersistenceDiagram._columns(dims, births, deaths)
