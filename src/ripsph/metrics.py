"""Pairwise Euclidean distances, dense or within a threshold, and
metric-axiom validation."""
from __future__ import annotations

import math

import numpy as np

from .errors import NotSquare

TRIANGLE_TOL = 1e-9
# cap on the triangle check's temporary: 256k float64, 2 MiB; a block holds
# at least one row, which takes n * n floats, so past n = 512 the temporary
# is one more n x n matrix
_BLOCK_FLOATS = 1 << 18
# coordinates per block of the pairs_within sweep: 256 KiB per float64
# temporary, which stays in cache; blocks of 2 MiB ran slower and raised
# the peak RSS of a 4,000-point run by 2 MiB
_SWEEP_FLOATS = 1 << 15
# below this a coordinate difference may square to a subnormal or to zero
_TINY_DIFF = 2.0 ** -511
# relative slack of the sweep window, far above every rounding of its bound
_SLACK = 2.0 ** -40


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense n x n Euclidean distance matrix, exactly symmetric.

    Each unordered pair is computed once and mirrored, so symmetry holds
    bitwise, not just within floating tolerance. Raises ValueError if a
    distance is not finite, as when large coordinates overflow.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected an (n, d) point cloud with n >= 1")
    n = pts.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        diff = pts[i + 1:] - pts[i]
        row = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        out[i, i + 1:] = row
        out[i + 1:, i] = row
    # max is NaN if any entry is; finite points reach inf only by overflow
    if not out.max() < np.inf:
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(f"distance ({i},{j}) is {float(out[i, j])!r}; "
                         "distances must be finite")
    out.setflags(write=False)
    return out


def pairs_within(points: np.ndarray,
                 eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of points at Euclidean distance <= eps, as arrays
    i, j and d in no set order, each d bitwise pairwise_distances(points)[i, j].

    A sweep along the first coordinate: after sorting by it, the candidates
    of a point are one window of later points, taken in blocks of at most
    _SWEEP_FLOATS coordinates (or one window), so far pairs cost no
    distance. The window ends at x + (1 + 2^-40) w + 2^-40 |x| with
    w = max(eps, 2^-511), and the 2^-40 terms exceed every rounding of that
    bound and of x' - x, so a skipped pair has a computed difference
    dx > w. dx >= 2^-511 squares to a normal number, and a distance is a
    rounded square root of a sum of nonnegative rounded squares, one of
    them dx^2, so it is at least dx (1 - 2^-52)^2 > eps. A smaller dx may
    square to zero, which is why w is never below 2^-511: points at x = 0
    and 1e-200 are at distance 0.

    Raises ValueError as pairwise_distances does if a distance is not
    finite; that check looks at the pairwise_distances matrix only when
    the coordinate spans are large enough for a square to overflow.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError("expected an (n, d) point cloud with n, d >= 1")
    n, dim = pts.shape
    # half spans cannot overflow; below the bound the sum of dim squared
    # differences stays under 2^1022; NaN, or inf - inf, fails the test
    with np.errstate(invalid="ignore"):
        half_span = pts.max(axis=0) / 2 - pts.min(axis=0) / 2
    if not half_span.max() <= 2.0 ** 510 / math.sqrt(dim):
        pairwise_distances(pts)
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    x = pts[:, 0]
    w = max(eps, _TINY_DIFF) * (1.0 + _SLACK)
    with np.errstate(over="ignore"):  # an infinite bound takes every point
        end = np.searchsorted(x, x + (w + _SLACK * np.abs(x)), side="right")
    count = end - np.arange(1, n + 1)
    first = np.concatenate(([0], np.cumsum(count)))
    cap = max(1, _SWEEP_FLOATS // dim)
    out_i, out_j, out_d = [], [], []
    a0 = 0
    while a0 < n:
        # whole windows up to cap candidates, or one window past it
        a1 = max(a0 + 1, int(np.searchsorted(first, first[a0] + cap, "right")) - 1)
        rows = np.arange(a0, a1)
        a = np.repeat(rows, count[a0:a1])
        b = np.arange(first[a0], first[a1]) + np.repeat(
            rows + 1 - first[a0:a1], count[a0:a1])
        # as in pairwise_distances; the sign of a difference squares away
        diff = pts[b] - pts[a]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = d <= eps
        a, b = order[a[keep]], order[b[keep]]
        out_i.append(np.minimum(a, b))
        out_j.append(np.maximum(a, b))
        out_d.append(d[keep])
        a0 = a1
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_d)


def validate_metric(m: np.ndarray) -> list[str]:
    """Check the metric axioms; empty list means m is a valid metric.

    Identity, positivity, and symmetry are checked exactly; the triangle
    inequality within 1e-9 (distances derived from one matrix share
    rounding, larger slack would mask real violations). Messages come in
    row-major order; a triangle violation (i,k) names the first j that
    minimises d(i,j) + d(j,k).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    violations = [f"Identity violation at ({i},{i}): {m[i, i]!r}"
                  for i in np.flatnonzero(np.diagonal(m) != 0.0)]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    asymmetric = (m != m.T) & upper
    nonpositive = (m <= 0.0) & upper
    for i, j in np.argwhere(asymmetric | nonpositive):
        if asymmetric[i, j]:
            violations.append(f"Symmetry violation at ({i},{j})")
        if nonpositive[i, j]:
            violations.append(f"Positivity violation at ({i},{j}): {m[i, j]!r}")
    # min-plus product m (x) m over row blocks: via[i, k] = min_j m[i,j] + m[j,k]
    rows = max(1, _BLOCK_FLOATS // max(n * n, 1))
    for start in range(0, n, rows):
        block = m[start:start + rows]
        via = (block[:, :, None] + m[None, :, :]).min(axis=1)
        bad = (via < block - TRIANGLE_TOL) & upper[start:start + rows]
        for i, k in np.argwhere(bad) + (start, 0):
            j = int(np.argmin(m[i] + m[:, k]))
            violations.append(
                f"Triangle violation ({i},{k}): {m[i, k]!r} > "
                f"{m[i, j]!r} + {m[j, k]!r}")
    return violations
