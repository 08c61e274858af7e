"""Core domain types: simplices, complexes, chains, filtrations, diagrams.

Everything here is immutable after construction and safe to share across
threads. Vertex ids are dense non-negative integers; coefficients are GF(2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidFiltration


class Simplex(tuple):
    """A simplex as its canonical (strictly increasing) tuple of vertex ids;
    it equals, hashes and orders like that plain tuple: Simplex((1, 0)) == (0, 1)."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]) -> "Simplex":
        verts = tuple(sorted(vertices))
        if not verts:
            raise ValueError("simplex must have at least one vertex")
        for v in verts:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
        if any(a == b for a, b in zip(verts, verts[1:])):
            raise ValueError(f"duplicate vertices in {verts}")
        return tuple.__new__(cls, verts)

    @classmethod
    def _canonical(cls, vertices: tuple[int, ...]) -> "Simplex":
        """Unchecked constructor for a tuple already strictly increasing and
        made of non-negative ints, such as a face of an existing simplex."""
        return tuple.__new__(cls, vertices)

    @property
    def vertices(self) -> tuple[int, ...]:
        """The vertex ids as a plain tuple."""
        return tuple(self)

    @property
    def dimension(self) -> int:
        return len(self) - 1

    def faces(self) -> list["Simplex"]:
        """All codimension-1 faces (empty list for a vertex)."""
        if len(self) == 1:
            return []
        return [Simplex._canonical(self[:i] + self[i + 1:]) for i in range(len(self))]

    def subfaces(self) -> Iterator["Simplex"]:
        """Every proper non-empty face, all dimensions."""
        for k in range(1, len(self)):
            yield from map(Simplex._canonical, combinations(self, k))

    def __repr__(self) -> str:
        return f"Simplex{self.vertices}"


def simplex_sort_key(s: Simplex) -> tuple[int, Simplex]:
    return (len(s), s)


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite set of simplices, expected to be closed under taking faces."""

    simplices: frozenset[Simplex]

    def __init__(self, simplices: Iterable[Simplex]):
        object.__setattr__(self, "simplices", frozenset(simplices))

    @classmethod
    def from_maximal(cls, maximal: Iterable[Simplex]) -> "SimplicialComplex":
        """Build the closure of the given simplices."""
        out: set[Simplex] = set()
        for s in maximal:
            out.add(s)
            out.update(s.subfaces())
        return cls(out)

    @property
    def dimension(self) -> int:
        return max((s.dimension for s in self.simplices), default=-1)

    def counts(self) -> list[int]:
        """Number of simplices per dimension, index = dimension."""
        out = [0] * (self.dimension + 1)
        for s in self.simplices:
            out[s.dimension] += 1
        return out

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, s: Simplex) -> bool:
        return s in self.simplices


def validate_complex(c: SimplicialComplex) -> list[str]:
    """Diagnostic closure check; empty list means the complex is valid.

    Each violation names the offending simplex and the missing face.
    """
    present = c.simplices  # a Simplex is found by its plain vertex tuple
    found = []  # (sort key, messages) of the violators only
    for s in present:
        if len(s) > 1:
            missing = [f"simplex {s.vertices} missing face {face}" for face in
                       (s[:i] + s[i + 1:] for i in range(len(s))) if face not in present]
            missing += [f"simplex {s.vertices} missing vertex ({u},)"
                        for u in s if (u,) not in present]
            if missing:
                found.append((simplex_sort_key(s), missing))
    # keys are distinct, so sorting never compares the message lists
    return [m for _, missing in sorted(found) for m in missing]


@dataclass(frozen=True)
class Chain:
    """A GF(2) formal sum of equal-dimension simplices (set semantics)."""

    dimension: int
    simplices: frozenset[Simplex] = field(default_factory=frozenset)

    def __init__(self, dimension: int, simplices: Iterable[Simplex] = ()):
        members = frozenset(simplices)
        for s in members:
            if s.dimension != dimension:
                raise ValueError(
                    f"chain of dimension {dimension} cannot contain {s!r}")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "simplices", members)

    def __add__(self, other: "Chain") -> "Chain":
        if other.dimension != self.dimension:
            raise ValueError("cannot add chains of different dimensions")
        return Chain(self.dimension, self.simplices ^ other.simplices)

    def add_simplex(self, s: Simplex) -> "Chain":
        """GF(2) addition of a single simplex: adding twice removes it."""
        return self + Chain(self.dimension, (s,))

    @property
    def is_zero(self) -> bool:
        return not self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)


def filtration_sort_key(entry: tuple[Simplex, float]) -> tuple[float, int, Simplex]:
    s, scale = entry
    if math.isnan(scale):
        raise ValueError("filtration scales must not be NaN")
    return (scale, len(s), s)


@dataclass(frozen=True)
class Filtration:
    """Ordered (simplex, scale) entries; faces always precede cofaces.

    Ties at equal scale break by dimension, then lexicographic vertex
    order, which makes the downstream reduction deterministic. A NaN scale
    has no place in that order and raises ValueError.
    """

    entries: tuple[tuple[Simplex, float], ...]

    def __init__(self, entries: Iterable[tuple[Simplex, float]]):
        ordered = tuple(sorted(entries, key=filtration_sort_key))
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Simplex, float]]:
        return iter(self.entries)

    def scales(self) -> list[float]:
        """Distinct scales in ascending order."""
        return sorted({scale for _, scale in self.entries})

    def validate(self) -> list[str]:
        """[] if every entry is new and its faces come earlier, else the
        message of the InvalidFiltration that persistence_diagram raises."""
        from .homology import _boundary_columns  # homology imports core
        try:
            _boundary_columns(s for s, _ in self.entries)
        except InvalidFiltration as e:
            return [str(e)]
        return []


@dataclass(frozen=True, order=True)
class PersistencePair:
    """A (birth, death) interval for a homology class of given dimension."""

    dimension: int
    birth: float
    death: float = math.inf

    def __post_init__(self):
        if self.dimension < 0:
            raise ValueError(f"negative dimension {self.dimension}")
        if not math.isfinite(self.birth):
            raise ValueError(f"birth must be finite, got {self.birth}")
        if math.isnan(self.death):
            raise ValueError("death must not be NaN")
        if self.death < self.birth:
            raise ValueError(f"death {self.death} before birth {self.birth}")

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    @property
    def is_essential(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True, eq=False, init=False)
class PersistenceDiagram:
    """Multiset of persistence pairs as three read-only numpy columns, dims
    (intp), births and deaths (float64), sorted by (dim, birth, death).
    Iteration, pairs and in_dimension build PersistencePair objects on
    demand; the engine and every output read the columns."""

    dims: np.ndarray
    births: np.ndarray
    deaths: np.ndarray

    def __new__(cls, pairs: Iterable[PersistencePair]) -> "PersistenceDiagram":
        return cls._columns(*np.array([(p.dimension, p.birth, p.death) for p in pairs],
                                      float).reshape(-1, 3).T)

    @classmethod
    def _columns(cls, k, b, d) -> "PersistenceDiagram":
        """Unchecked constructor from the columns of valid pairs, in any
        order; the diagram holds sorted read-only copies."""
        self = object.__new__(cls)
        k, b, d = np.asarray(k, np.intp), np.asarray(b, float), np.asarray(d, float)
        order = np.lexsort((d, b, k))
        for name, col in zip(_COLUMNS, (k[order], b[order], d[order])):
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        return self

    @property
    def pairs(self) -> tuple[PersistencePair, ...]:
        return tuple(map(PersistencePair, self.dims.tolist(), self.births.tolist(),
                         self.deaths.tolist()))

    def in_dimension(self, k: int) -> list[PersistencePair]:
        return [p for p in self.pairs if p.dimension == k]

    @property
    def max_dimension(self) -> int:
        return int(self.dims.max(initial=-1))

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[PersistencePair]:
        return iter(self.pairs)

    def _key(self) -> tuple[bytes, ...]:
        # + 0 turns -0.0 into 0.0, which compares equal to it
        return tuple((getattr(self, c) + 0).tobytes() for c in _COLUMNS)

    def __eq__(self, other):
        return isinstance(other, PersistenceDiagram) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # unpickled arrays would be writeable
        return PersistenceDiagram._columns, (self.dims, self.births, self.deaths)


_COLUMNS = ("dims", "births", "deaths")
