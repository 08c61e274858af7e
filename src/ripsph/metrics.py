"""Pairwise Euclidean distance matrices and metric-axiom validation."""
from __future__ import annotations

import numpy as np

from .errors import NotSquare

TRIANGLE_TOL = 1e-9


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense n x n Euclidean distance matrix, exactly symmetric.

    Each unordered pair is computed once and mirrored, so symmetry holds
    bitwise, not just within floating tolerance.
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
    out.setflags(write=False)
    return out


def validate_metric(m: np.ndarray) -> list[str]:
    """Check the metric axioms; empty list means m is a valid metric.

    Identity, positivity, and symmetry are checked exactly; the triangle
    inequality within 1e-9 (distances derived from one matrix share
    rounding, larger slack would mask real violations).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    violations = []
    for i in range(n):
        if m[i, i] != 0.0:
            violations.append(f"Identity violation at ({i},{i}): {m[i, i]!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                violations.append(f"Symmetry violation at ({i},{j})")
            if m[i, j] <= 0.0:
                violations.append(f"Positivity violation at ({i},{j}): {m[i, j]!r}")
    for i in range(n):
        for k in range(i + 1, n):
            # min over intermediate j of d(i,j)+d(j,k), vectorized
            if n and np.min(m[i] + m[:, k]) < m[i, k] - TRIANGLE_TOL:
                j = int(np.argmin(m[i] + m[:, k]))
                violations.append(
                    f"Triangle violation ({i},{k}): {m[i, k]!r} > "
                    f"{m[i, j]!r} + {m[j, k]!r}")
    return violations

