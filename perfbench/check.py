"""Correctness gate: what every op of a workload must print or write.

Three kinds of reference, all computed before any timed worker starts:

- pins.json holds the outputs of the seed engine for seed 0 (the default)
  and one held-out seed: the sha256 of each run op's diagram CSV, of the
  validate op's stdout, and each distance as printed;
- for any seed, H0 must equal tests/oracles.union_find_h0 over the
  1-skeleton at the op's threshold, built here from the distance matrix;
- for any seed, each distance must equal a reference computed here:
  bottleneck exactly, by bisection over the realised costs with scipy's
  Hopcroft-Karp matching as the test, and Wasserstein within 1e-9 as in acceptance
  criterion 7, widened by one unit in the ninth significant digit
  because the CLI prints nine.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from oracles import union_find_h0
from ripsph.core import Filtration, Simplex
from ripsph.ingestion import load_csv, parse_pdb
from ripsph.metrics import pairwise_distances

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())
WASSERSTEIN_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _h0_oracle(argv: list[str]) -> list[tuple[float, float]]:
    path = Path(argv[1])
    text = path.read_text()
    points = parse_pdb(text) if path.suffix == ".pdb" else load_csv(text)
    m = pairwise_distances(points)
    threshold = _arg(argv, "--threshold")
    eps = float(m.max()) if threshold is None else float(threshold)
    i, j = np.nonzero(np.triu(m <= eps, k=1))
    entries = [(Simplex((v,)), 0.0) for v in range(len(points))]
    entries += [(Simplex((int(a), int(b))), float(m[a, b])) for a, b in zip(i, j)]
    return union_find_h0(Filtration(entries))


def _finite_points(path: Path) -> np.ndarray:
    rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
    return np.array([(float(b), float(d)) for _, b, d in rows], dtype=np.float64)


def _linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                      np.abs(a[:, None, 1] - b[None, :, 1]))


def _diag(p: np.ndarray) -> np.ndarray:
    return (p[:, 1] - p[:, 0]) / 2.0


def _covers(allowed: np.ndarray) -> bool:
    """Whether a matching of allowed's bipartite graph covers every row."""
    if not allowed.shape[0]:
        return True
    match = maximum_bipartite_matching(csr_matrix(allowed), perm_type="column")
    return bool((match >= 0).all())


def bottleneck_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest realised cost c at which the diagrams match within c.

    At c, a point whose diagonal cost exceeds c must match a point of the
    other diagram within L-infinity distance c; the rest may go to the
    diagonal. By the Mendelsohn-Dulmage theorem one matching covers both
    sides' such points iff each side's can be covered on its own, so each
    step needs two small matchings instead of one over the (n+m)^2
    augmented graph.
    """
    linf, diag_a, diag_b = _linf(a, b), _diag(a), _diag(b)
    candidates = np.unique(np.concatenate([linf.ravel(), diag_a, diag_b, [0.0]]))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        c = candidates[mid]
        allowed = linf <= c
        if _covers(allowed[diag_a > c]) and _covers(allowed[:, diag_b > c].T):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def wasserstein_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Exact assignment over the diagonal-augmented (n+m) x (m+n) costs."""
    n, m = len(a), len(b)
    cost = np.zeros((n + m, m + n))
    cost[:n, :m] = _linf(a, b)
    cost[:n, m:] = _diag(a)[:, None]
    cost[n:, :m] = _diag(b)[None, :]
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols])


def _printed_slack(x: float) -> float:
    """One unit in the ninth significant digit of x, as printed by .9g."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0


class Expectation:
    """Reference for one op; check() returns None or a mismatch message."""

    def __init__(self, op: dict, pin: str | None):
        self.op = op
        self.pin = pin
        argv = op["argv"]
        if op["command"] == "run":
            self.h0 = _h0_oracle(argv)
            self.diagram = Path(_arg(argv, "--diagram-csv"))
            self.max_dim = int(_arg(argv, "--max-dimension"))
        elif op["command"] == "validate":
            self.components = sum(1 for _, d in _h0_oracle(argv) if math.isinf(d))
        else:
            a, b = _finite_points(Path(argv[1])), _finite_points(Path(argv[2]))
            self.kind = _arg(argv, "--kind")
            ref = bottleneck_reference if self.kind == "bottleneck" else wasserstein_reference
            self.value = ref(a, b)

    def check(self, stdout: str) -> str | None:
        command = self.op["command"]
        if command == "run":
            return self._check_run(stdout)
        if command == "validate":
            return self._check_validate(stdout)
        return self._check_distance(stdout.strip())

    def check_value(self, value: float) -> str | None:
        """Full-precision distance from the traced run."""
        if self.kind == "bottleneck":
            ok = value == self.value
        else:
            ok = abs(value - self.value) <= WASSERSTEIN_TOL
        return None if ok else f"{self.kind} {value!r} != reference {self.value!r}"

    def _check_run(self, stdout: str) -> str | None:
        if not self.diagram.is_file():
            return "no diagram CSV written"
        data = self.diagram.read_bytes()
        if self.pin is not None and sha256(data) != self.pin:
            return "diagram CSV differs from the pinned seed-engine digest"
        lines = data.decode().splitlines()
        if lines[0] != "dim,birth,death":
            return "diagram CSV header"
        rows = [line.split(",") for line in lines[1:]]
        h0 = sorted((float(b), float(d)) for dim, b, d in rows if dim == "0")
        if h0 != self.h0:
            return "H0 differs from the union-find oracle"
        counts = [0] * (self.max_dim + 1)
        for dim, _, _ in rows:
            counts[int(dim)] += 1
        table = stdout.splitlines()
        if len(table) != 2 or [int(v) for v in table[1].split()] != counts:
            return "printed Betti table does not match the diagram CSV"
        return None

    def _check_validate(self, stdout: str) -> str | None:
        if self.pin is not None and sha256(stdout.encode()) != self.pin:
            return "validate output differs from the pinned seed-engine digest"
        lines = stdout.splitlines()
        for needed in ("metric violations: 0", "complex violations: 0"):
            if needed not in lines:
                return f"expected {needed!r}"
        if len(lines) != 6:  # four summary lines and the Betti table: no violations
            return "violations reported"
        if int(lines[-1].split()[0]) != self.components:
            return "beta_0 differs from the union-find component count"
        return None

    def _check_distance(self, printed: str) -> str | None:
        if self.kind == "bottleneck":
            ok = printed == format(self.value, ".9g")
            if self.pin is not None:
                ok = ok and printed == self.pin
        else:
            slack = WASSERSTEIN_TOL + _printed_slack(self.value)
            ok = abs(float(printed) - self.value) <= slack
            if self.pin is not None:
                ok = ok and abs(float(printed) - float(self.pin)) <= slack
        return None if ok else f"{self.kind} printed {printed} != reference {self.value!r}"


def expectations(workload: str, seed: int, ops: list[dict]) -> dict[str, Expectation]:
    pins = PINS.get(workload, {}).get(str(seed), {})
    return {op["name"]: Expectation(op, pins.get(op["name"])) for op in ops}
