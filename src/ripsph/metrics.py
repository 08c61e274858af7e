"""Pairwise Euclidean distance matrices and metric-axiom validation."""
from __future__ import annotations

import numpy as np

from .errors import NotSquare

TRIANGLE_TOL = 1e-9
# cap on the triangle check's temporary: 256k float64, 2 MiB; a block holds
# at least one row, which takes n * n floats, so past n = 512 the temporary
# is one more n x n matrix
_BLOCK_FLOATS = 1 << 18


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
