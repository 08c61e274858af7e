"""Bottleneck and 1-Wasserstein distances between persistence diagrams.

Ground metric is L-infinity on the (birth, death) plane; a point may match
its orthogonal diagonal projection at cost (death - birth) / 2. Essential
(infinite-death) points must match each other; mismatched counts make the
distance infinite. Both distances work on the n x m L-infinity block
between the finite points of the two diagrams and on each point's diagonal
cost ha or hb, never on the (n+m) x (m+n) diagonal-augmented matrix
(Kerber, Morozov and Nigmetov, "Geometry helps to compare persistence
diagrams", JEA 2017).

Bottleneck bisects over candidate radii. Only the pairs whose L-infinity
cost is below the larger of their two diagonal costs can matter: a
matching that uses a pair costing at least ha[i] and hb[j] gets no worse
when that pair is replaced by the two diagonal moves. The candidates are
the costs of those pairs (about a fifth of the block on the benchmark
diagrams, all of it on H0 diagrams whose deaths lie in a narrow band), ha,
hb and 0. At a radius c a point is far when its diagonal cost exceeds c,
and c is feasible iff some matching of pairs within c covers every far
point of both diagrams; by Mendelsohn-Dulmage, iff each side's far points
can be covered on their own. A pair within c of a far point is one that
can matter, so each side is read from the block itself: the points are
ordered far ones first, and the far rows (or columns) give a 0/1 matrix of
the pairs within c. A sparse matrix, at most one cell in eight set, is
decided by a unit-capacity max flow (scipy's Dinic, about 49 bytes an
edge), a denser one by linear_sum_assignment (9 bytes a cell, and faster
there), so whatever the diagrams' shape a radius adds at most about 1.3
float64 blocks to the block and the candidates. (scipy's Hopcroft-Karp
took 11 ms per radius near the answer of an 800-point benchmark pair
against 5-6 ms for the flow, and had not decided the first radius of a
2,000-point pair after a minute.)

Wasserstein starts from every point on the diagonal; matching point i of a
with point j of b changes that total by linf[i, j] - ha[i] - hb[j]. One
assignment over these savings, clipped at 0, is optimal: a pair that saves
nothing costs as much as its two diagonal moves. scipy inserts the rows
one at a time (Crouse, IEEE TAES 2016), so its time depends on which side
they are: the shorter, of two of equal length the less persistent. That
choice can move the value only by rounding, between optimal matchings.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from .core import PersistenceDiagram


def _split(d: PersistenceDiagram, dim: int) -> tuple[np.ndarray, list[float]]:
    """The finite (birth, death) points of dimension dim as rows, and the
    essential births in ascending order, as the diagram sorts them."""
    essential = np.isinf(d.deaths)
    finite = (d.dims == dim) & ~essential
    return (np.column_stack((d.births[finite], d.deaths[finite])),
            d.births[(d.dims == dim) & essential].tolist())


def _blocks(a: PersistenceDiagram, b: PersistenceDiagram, dim: int
            ) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray] | None:
    """The gaps between matched essential births (None when the essential
    counts differ), the n x m L-infinity block between the finite points
    of a and of b, and the diagonal cost (half persistence) of each."""
    fa, ea = _split(a, dim)
    fb, eb = _split(b, dim)
    if len(ea) != len(eb):
        return None
    with np.errstate(over="ignore"):  # a value past the float range is inf
        linf = np.subtract.outer(fa[:, 0], fb[:, 0])
        gap = np.subtract.outer(fa[:, 1], fb[:, 1])
        np.maximum(np.abs(linf, out=linf), np.abs(gap, out=gap), out=linf)
        del gap  # in place: two n x m blocks at most
        half = [(f[:, 1] - f[:, 0]) / 2.0 for f in (fa, fb)]
    for f, h in zip((fa, fb), half):  # where a difference overflows, its half fits
        wide = np.isinf(h)
        h[wide] = f[wide, 1] / 2.0 - f[wide, 0] / 2.0
    return [abs(x - y) for x, y in zip(ea, eb)], linf, *half


def _covers(ok: np.ndarray, axis: int) -> bool:
    """Whether some matching within the 0/1 matrix ok covers every row
    (axis 0) or every column (axis 1); trivially so when there are none.
    With at most one cell in eight set, one unit-capacity max flow source
    -> rows -> columns -> sink, else one linear_sum_assignment on the
    complement; a row or column to cover with no edge decides it first."""
    n, m = ok.shape
    if ok.shape[axis] == 0:
        return True
    if 8 * np.count_nonzero(ok) > ok.size:
        if ok.shape[axis] > ok.shape[1 - axis] or not ok.any(axis=1 - axis).all():
            return False
        rows, cols = linear_sum_assignment(~ok)
        return bool(ok[rows, cols].all())
    cols = np.flatnonzero(ok)  # row-major: each row's columns ascending
    deg = np.diff(np.searchsorted(cols, np.arange(n + 1) * m))
    np.remainder(cols, m, out=cols)
    if not (deg if axis == 0 else np.bincount(cols, minlength=m)).all():
        return False
    # nodes: source 0, rows 1..n, columns n+1..n+m, sink n+m+1
    indices = np.concatenate((np.arange(1, n + 1), cols + (n + 1), np.full(m, n + m + 1)),
                             dtype=np.int32)
    del cols
    indptr = np.cumsum(np.concatenate(([0, n], deg, np.ones(m, np.intp), [0])),
                       dtype=np.int32)
    net = csr_array((np.ones(len(indices), np.int32), indices, indptr),
                    shape=(n + m + 2,) * 2)
    return maximum_flow(net, 0, n + m + 1, method="dinic").flow_value == ok.shape[axis]


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram,
                        dim: int) -> float:
    """Exact bottleneck distance for one homology dimension.

    Binary search over the costs of the pairs that can matter and the
    diagonal costs. Radius c is feasible iff the far points of a
    (half-persistence above c) can all be matched to points of b within
    L-infinity distance c, and the far points of b to points of a. No
    floating thresholds enter the answer.
    """
    blocks = _blocks(a, b, dim)
    if blocks is None:
        return math.inf
    gaps, linf, ha, hb = blocks
    del blocks
    # far points first: at a radius c the far points of a are the first
    # rows and those of b the first columns
    ra, rb = np.argsort(-ha), np.argsort(-hb)
    linf, ha, hb = linf[np.ix_(ra, rb)], ha[ra], hb[rb]
    keep = linf < ha[:, None]
    keep |= linf < hb
    costs = np.concatenate((linf[keep], ha, hb, [0.0]))
    del keep
    costs.sort()  # in place: np.unique would copy it once more
    candidates = costs[np.concatenate(([True], costs[1:] > costs[:-1]))]
    del costs
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        c = candidates[mid]
        fa, fb = np.count_nonzero(ha > c), np.count_nonzero(hb > c)
        if _covers(linf[:fa] <= c, 0) and _covers(linf[:, :fb] <= c, 1):
            hi = mid
        else:
            lo = mid + 1
    return max(gaps + [float(candidates[lo])])


def wasserstein_distance(a: PersistenceDiagram, b: PersistenceDiagram,
                         dim: int) -> float:
    """1-Wasserstein distance: minimum total L-infinity cost over matchings
    in which unmatched points go to the diagonal, via exact assignment."""
    blocks = _blocks(a, b, dim)
    if blocks is None:
        return math.inf
    gaps, linf, ha, hb = blocks
    with np.errstate(over="ignore"):
        saving = np.minimum(linf - ha[:, None] - hb, 0.0)
    if np.isneginf(saving).any():  # quarters cannot overflow; exact above subnormals
        saving = np.minimum(linf / 4.0 - ha[:, None] / 4.0 - hb / 4.0, 0.0)
    # scipy transposes a tall matrix itself; a sum of h / 2n cannot overflow
    n, m = saving.shape
    if n == m and (hb / (2 * n)).sum() < (ha / (2 * n)).sum():
        cols, rows = linear_sum_assignment(saving.T)
    else:
        rows, cols = linear_sum_assignment(saving)
    kept = saving[rows, cols] < 0.0
    rows, cols = rows[kept], cols[kept]
    # the realised costs, not the diagonal total plus the savings, which
    # cancels; fsum is exactly rounded, so their order does not matter
    try:
        return math.fsum(gaps + linf[rows, cols].tolist()
                         + np.delete(ha, rows).tolist() + np.delete(hb, cols).tolist())
    except OverflowError:  # the costs, all >= 0, sum past the float range
        return math.inf
