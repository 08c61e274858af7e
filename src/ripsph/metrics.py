"""Pairwise Euclidean distances, dense or within a threshold (the pairs a
kd-tree proposes, each distance computed as in the dense matrix), and
metric-axiom validation."""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import NotSquare

TRIANGLE_TOL = 1e-9
# coordinates per block of pairs_within's distance pass: 256 KiB per
# float64 temporary, which stays in cache
_PAIR_FLOATS = 1 << 15
# below this distance a squared coordinate difference may be subnormal
_TINY_DISTANCE = 2.0 ** -511
# relative slack of the kd-tree radius, far above the tree's rounding
_SLACK = 2.0 ** -40
# cells of validate_metric's triangle buffer: 1 MiB of float64, reused for
# every block of rows; with the block of m it sums, a pass touches 2 MiB
# whatever the point count (a 2 MiB buffer ran 20-40% slower at n = 1,000
# and 2,000 on a 2 MiB L2 cache)
_CELLS = 1 << 17


def _lengths(diff: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of diff: both pairwise_distances and
    pairs_within compute every distance here, so they agree bitwise."""
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _rows(pts: np.ndarray):
    """Each i with row i of the upper triangle of the distance matrix of
    pts, the distances from pts[i] to pts[i + 1:]. Raises ValueError at the
    first row that holds a distance that is not finite, as when large
    coordinates overflow: the first such entry of the symmetric matrix in
    row-major order always lies in the upper triangle."""
    for i in range(len(pts)):
        row = _lengths(pts[i + 1:] - pts[i])
        # max is NaN if any entry is; finite points reach inf only by overflow
        if not row.max(initial=0.0) < np.inf:
            j = int(np.argmin(np.isfinite(row)))
            raise ValueError(f"distance ({i},{i + 1 + j}) is {float(row[j])!r}; "
                             "distances must be finite")
        yield i, row


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense n x n Euclidean distance matrix, exactly symmetric.

    Each unordered pair is computed once and mirrored, so symmetry holds
    bitwise, not just within floating tolerance. Raises ValueError if a
    distance is not finite, as when large coordinates overflow. The points
    are read in C order: einsum may sum a column-major row in another
    order, which changes the last bit of some distances.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected an (n, d) point cloud with n >= 1")
    n = pts.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    for i, row in _rows(pts):
        out[i, i + 1:] = row
        out[i + 1:, i] = row
    out.setflags(write=False)
    return out


def pairs_within(points: np.ndarray,
                 eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of points at Euclidean distance <= eps, as arrays
    i, j and d in no set order, each d bitwise pairwise_distances(points)[i, j].

    The candidates come from one query of scipy's kd-tree at radius
    r = max(eps, 2^-511) (1 + 2^-40), and each is kept if its d, computed
    as in pairwise_distances, is <= eps. They hold every pair of the
    answer: the tree reports every pair whose distance, as it computes it,
    is at most r; that and d differ by a few ulps, relative; and below
    2^-511, where squares go subnormal or to zero, the floor on r covers
    the absolute error (points at x = 0 and 1e-200 are at distance 0).

    Raises ValueError as pairwise_distances does if a distance is not
    finite. That check walks the distance rows, one at a time, keeping
    none, only if the sum h^2 of the squared half spans of the bounding
    box fails h^2 <= 2^1020. When it passes no distance can overflow: each
    coordinate difference is at most its axis's span, so every squared
    distance is at most (2h)^2 <= 2^1022, and the roundings of h^2 and of
    the distance, a relative (2 dim + 5) 2^-53 at most, cannot close the
    factor 4 below 2^1024, where floats overflow. NaN, inf - inf and a sum
    of squares that overflows fail the test, so the tree never sees a
    non-finite coordinate.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError("expected an (n, d) point cloud with n, d >= 1")
    dim = pts.shape[1]
    # half spans cannot overflow, though their squares can
    with np.errstate(invalid="ignore", over="ignore"):
        half_span = pts.max(axis=0) / 2 - pts.min(axis=0) / 2
        h2 = (half_span ** 2).sum()
    if not h2 <= 2.0 ** 1020:
        for _ in _rows(np.ascontiguousarray(pts)):
            pass
    r = max(eps, _TINY_DISTANCE) * (1.0 + _SLACK)
    ij = cKDTree(pts).query_pairs(r, output_type="ndarray")
    d = np.empty(len(ij))
    step = max(1, _PAIR_FLOATS // dim)
    for a in range(0, len(ij), step):
        # as in pairwise_distances, where row i holds pts[j] - pts[i], j > i
        d[a:a + step] = _lengths(pts[ij[a:a + step, 1]] - pts[ij[a:a + step, 0]])
    keep = d <= eps
    i, j = ij[keep].T
    return i, j, d[keep]


def validate_metric(m: np.ndarray) -> list[str]:
    """Check the metric axioms; empty list means m is a valid metric.

    Identity, positivity, and symmetry are checked exactly; the triangle
    inequality within 1e-9 (distances derived from one matrix share
    rounding, larger slack would mask real violations). Messages come in
    row-major order; a triangle violation (i,k) names the first j that
    minimises d(i,j) + d(j,k). Values print as Python floats, the same
    under numpy 1 and 2.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return _pair_violations(m) + _triangle_violations(m)


def _cloud_violations(points: np.ndarray, m: np.ndarray) -> list[str]:
    """validate_metric(m) for m = pairwise_distances(points), with the
    O(n^3) triangle scan run only if rounding could make it flag a pair.

    With u = 2^-53 and d the coordinates per point, each entry of m is
    r (1 + rho) + alpha, r the exact distance of the two points. The d
    coordinate differences, their squares and their sum, in any order,
    carry a relative error of at most (d + 2) u, and the square root
    halves it and adds u: |rho| <= (d + 4) u / 2 to first order. Squares
    that go subnormal or to zero move the sum by at most d 2^-1075, so
    alpha <= sqrt(d) 2^-537, and 3 alpha < 2^-500 for any d below 2^70
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2002, 3.1).
    The exact distances obey the triangle inequality, so
    m[i,k] - m[i,j] - m[j,k] <= (d + 4) u max(m) + 3 alpha, and the scan's
    two roundings, of m[i,j] + m[j,k] and of m[i,k] - TRIANGLE_TOL, add at
    most 3 u max(m). A pair is flagged only if that total, (d + 7) u max(m)
    + 3 alpha to first order, exceeds TRIANGLE_TOL; the test below allows
    (d + 8) 2^-50 max(m) + 2^-500, over 8 times the first term, so when it
    holds no pair can be flagged and the scan is skipped."""
    violations = _pair_violations(m)
    if not (points.shape[1] + 8) * 2.0 ** -50 * m.max() + 2.0 ** -500 < TRIANGLE_TOL:
        violations += _triangle_violations(m)
    return violations


def _pair_violations(m: np.ndarray) -> list[str]:
    """The identity, symmetry and positivity messages of validate_metric
    for a square float64 m, each entry compared exactly."""
    violations = [f"Identity violation at ({i},{i}): {float(m[i, i])!r}"
                  for i in np.flatnonzero(np.diagonal(m) != 0.0)]
    asymmetric = np.triu(m != m.T, 1)
    nonpositive = np.triu(m <= 0.0, 1)
    for i, j in np.argwhere(asymmetric | nonpositive):
        if asymmetric[i, j]:
            violations.append(f"Symmetry violation at ({i},{j})")
        if nonpositive[i, j]:
            violations.append(
                f"Positivity violation at ({i},{j}): {float(m[i, j])!r}")
    return violations


def _triangle_violations(m: np.ndarray) -> list[str]:
    """The triangle messages of validate_metric for a square float64 m.

    min_j m[i,j] + m[j,k] is computed only for the pairs i < k it reports:
    for each column k, the column is added to blocks of the rows above it,
    in one reused buffer of at most _CELLS cells, and each row is reduced
    along its contiguous axis. The sums are the same floats as a full
    min-plus product, and a NaN sum hides the pair.
    """
    n = m.shape[0]
    rows = max(1, _CELLS // max(1, n))
    buf, bad = np.empty(min(rows, n) * n), []
    for k in range(1, n):
        col = m[:, k].copy()
        for a in range(0, k, rows):
            block = m[a:min(a + rows, k)]
            # row r of sums holds m[a + r, j] + m[j, k] for every j
            sums = np.add(block, col, out=buf[:block.size].reshape(block.shape))
            hit = np.flatnonzero(sums.min(axis=1) < block[:, k] - TRIANGLE_TOL)
            bad.extend((a + i, k) for i in hit)
    violations = []
    for i, k in sorted(bad):
        j = int(np.argmin(m[i] + m[:, k]))
        violations.append(
            f"Triangle violation ({i},{k}): {float(m[i, k])!r} > "
            f"{float(m[i, j])!r} + {float(m[j, k])!r}")
    return violations
