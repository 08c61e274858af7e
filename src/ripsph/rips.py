"""Vietoris-Rips filtrations and their persistence, from a distance matrix
or from the points themselves.

Scale values use the edge-length (diameter) convention: a simplex enters
at the largest pairwise distance among its vertices. Callers working in
the radius convention double their threshold before calling in.

The listing paths share one clique walk, `_levels` (Zomorodian, "Fast
construction of the Vietoris-Rips complex", 2010): the edges are the
graph's own CSR cells, each level above grows unsorted from the one below
by `_Graph.grow`, which reads every diameter in `_Graph.cofaces`, and the
top level is never stored whole:

- `build_rips` lists every simplex as a `Filtration` entry, the general
  path that `persistence_diagram` reduces and that tests use as referee;
- `rips_persistence` computes the diagram directly: it stops at the
  enclosing radius, pairs H0 by scipy's minimum spanning tree of the edge
  ranks (Kruskal over the edges, which only `_h0` sorts into filtration
  order) and H1 upwards by cohomology with clearing (de Silva, Morozov and
  Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011), on
  numpy arrays of vertex rows named by exact int64 keys. The apparent
  pairs (Bauer, "Ripser", JACT 2021), nearly every column, are decided in
  numpy one column at a time, as in Ripser++ (Zhang, Xiao and Wang, SoCG
  2020), and add no pair; a Python loop reduces the rest, each from one
  batch built a numpy pass per step rows: the coboundaries of those with
  a coface and of the apparent owners of their first pivots.
  Only an apparent owner met further down a reduction is built alone.
  The top level is cleared and tested pass by pass as it grows;
- `cloud_persistence` computes the same diagram from points, with only
  the distances the graph can hold: like Ripser's sparse input, the
  pairs within the threshold;
- `_counts_and_betti` counts one graph for `ripsph validate` and reduces
  only its strong collapse, nothing if it is a cone. Its counts walk no
  level: `_clique_counts` ANDs bitsets of the neighbours above each first
  vertex, and the top level is a popcount; `_core` removes, in rounds of one
  bitset pass over the live edges, each vertex whose closed neighbourhood
  lies in a neighbour's, until a round cuts no edge or under 1/64 of them.

Both diagram entries stop their pairs at the enclosing radius, found from
the pairs alone. `_Graph` is built from one list of weighted pairs i < j,
labels its own vertices and owns every weight it reads: one scipy CSR
array of the neighbour lists, and a band table that gives any other pair
in O(1) with no n x n array unless some vertex reaches all others.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import minimum_spanning_tree, reverse_cuthill_mckee

from .core import Filtration, PersistenceDiagram, Simplex, SimplicialComplex
from .errors import DimensionTooLarge, NotSquare
from .metrics import pairs_within
from .persistence import betti_at_scale

# cells per numpy pass of the engine: each 8-byte temporary of a pass holds
# at most 128 KiB, whatever the point count. That is glibc's default mmap
# threshold and about an L2 cache, so the temporaries come from a heap
# reused pass after pass; larger ones are mapped, freed and faulted in again
# on every pass, 2-3 us a minor fault: a fresh `ripsph run` on the 111-point
# helix at H0-H2 faults 4-6k pages, and 30-35k with 2 MiB temporaries
_CELLS = 1 << 14
# set bits of each byte: np.bitwise_count needs numpy 2
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


@dataclass(frozen=True)
class RipsParams:
    """max_dimension is the top homology dimension wanted; simplices one
    dimension higher are generated so that boundaries exist for it."""

    max_dimension: int
    threshold: float

    def __post_init__(self):
        if self.max_dimension < 0:
            raise ValueError("max_dimension must be >= 0")
        if not self.threshold >= 0:  # also rejects NaN
            raise ValueError("threshold must be >= 0")


def _checked(m: np.ndarray, max_dimension: int) -> np.ndarray:
    """m as a float64 array, after the checks both Rips paths make."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square distance matrix, got shape {m.shape}")
    # min is NaN if any entry is; symmetry is left to validate_metric
    if m.size and not (m.min() >= 0.0 and m.max() < np.inf):
        i, j = np.argwhere(~(m >= 0.0) | np.isinf(m))[0]
        raise ValueError(f"distance ({i},{j}) is {float(m[i, j])!r}; "
                         "distances must be finite and non-negative")
    _check_dimension(max_dimension, m.shape[0])
    return m


def _check_dimension(max_dimension: int, n: int) -> None:
    if max_dimension + 1 >= n:
        raise DimensionTooLarge(
            f"homology dimension {max_dimension} needs more than {n} points")


def build_rips(m: np.ndarray, params: RipsParams) -> Filtration:
    """Clique (flag) filtration: every subset whose pairwise distances are
    all <= threshold enters at its largest pairwise distance.

    Cliques grow level by level on the engine's neighbourhood graph: each
    one is produced once, from its face without its largest vertex, by
    adding a vertex above that face's last. Only the upper triangle of m
    is read into the result; all of m is checked.
    """
    m = _checked(m, params.max_dimension)
    g = _Graph(*_matrix_pairs(m, params.threshold), len(m))
    entries = [(Simplex._canonical((v,)), 0.0) for v in range(len(m))]
    for level in _levels(g, params.max_dimension):
        for s, diam in level:
            s = np.sort(g.names[s], axis=1)  # in m's vertices
            # share one float per distinct scale of a part, not per entry
            lengths = np.unique(diam)
            scales = lengths.tolist()
            at = np.searchsorted(lengths, diam).tolist()
            entries += zip(map(Simplex._canonical, s.tolist()),
                           map(scales.__getitem__, at))
    return Filtration(entries)


def _counts_and_betti(m: np.ndarray, max_dim: int, threshold: float
                      ) -> tuple[list[int], tuple[int, ...]]:
    """ripsph validate's report of the clique filtration of m up to
    threshold, from one graph: the simplices per dimension 0..max_dim + 1
    of build_rips(m, RipsParams(max_dim, threshold)), counted by
    _clique_counts, and its Betti numbers at threshold. If a vertex reaches
    all others, the complex is a cone on it and nothing is reduced; else
    _diagram reduces the core, the subgraph on the vertices _core keeps:
    its clique complex, all present at threshold, is a strong deformation
    retract of the whole one, so the two have the same homology."""
    m = _checked(m, max_dim)
    g = _Graph(*_matrix_pairs(m, threshold), len(m))
    counts = _clique_counts(g, max_dim + 1)
    if (np.diff(g.ptr) == len(m) - 1).any():
        return counts, (1,) + (0,) * max_dim
    live = _core(g)
    if not live.all():
        keep = live[g.edges[0]].all(axis=1)
        i, j = np.searchsorted(np.flatnonzero(live), g.edges[0][keep].T)
        w, g = g.edges[1][keep], None  # g's table is freed before the core's
        g = _Graph(i, j, w, int(live.sum()))
    return counts, betti_at_scale(_diagram(g, max_dim), threshold, max_dim=max_dim)


def _core(g: _Graph) -> np.ndarray:
    """The mask of the labels of g that its strong collapse keeps (Barmak
    and Minian, "Strong homotopy types, nerves and collapses", DCG 2012).
    If N[v] lies in N[w] for a neighbour w, closed neighbourhoods, the link
    of v in the clique complex is a cone on w: removing v, a strong
    collapse, keeps the homotopy type. A round tests each live edge once
    and removes each v strictly dominated or whose N[v] is that of a higher
    label: each has a dominator that stays, and domination survives the
    removal of others, so any prefix of rounds is a strong collapse. Rounds
    end when one removes none or cuts under 1/64 of the live edges, so all
    test under 64 times the first's edges: a dense graph still nears its
    fixed point, and a long chain, a few edges a round, is not peeled out.
    N[v] is the bitset row v of n / 64 words, in blocks of _CELLS words."""
    n = len(g.ptr) - 1
    words = -(-n // 64)
    r = np.r_[np.repeat(np.arange(n), np.diff(g.ptr)), np.arange(n)]
    c = np.r_[g.nbr, np.arange(n)].astype(np.uint64)  # the CSR cells and v
    bits = np.zeros((n, words), np.uint64)
    np.bitwise_or.at(bits, (r, c >> 6), np.uint64(1) << (c & 63))
    live = np.arange(64 * words) < n  # padded to whole words
    (x, y), block = g.edges[0].T, max(1, _CELLS // words)  # x < y
    while True:
        gone = np.zeros_like(live)
        for a in range(0, len(x), block):
            u, v = x[a:a + block], y[a:a + block]
            bu, bv = bits[u], bits[v]
            low = ~(bu & ~bv).any(axis=1)  # N[u] in N[v]
            gone[u[low]] = True
            gone[v[~low & ~(bv & ~bu).any(axis=1)]] = True
        live &= ~gone
        keep = live[x] & live[y]
        if 64 * (len(x) - np.count_nonzero(keep)) < len(x) or not gone.any():
            return live[:n]
        bits &= np.packbits(live, bitorder="little").view("<u8")
        x, y = x[keep], y[keep]


def _clique_counts(g: _Graph, top: int) -> list[int]:
    """The cliques of g with 1..top + 1 vertices, top >= 1, the simplices
    per dimension 0..top of its clique complex, counted exactly by first
    vertex (Chiba and Nishizeki, "Arboricity and subgraph listing
    algorithms", SIAM J. Comput. 1985) with no level above the edges grown
    by _Graph.grow.

    F(v) is v's neighbours above v, the tail of its CSR list. The cliques
    whose least vertex is v are v and the cliques of the subgraph induced
    on F(v), whose adjacency is read from the table as a bitset, bit y of
    row x set for the neighbours y > x of x in F(v). Each row x1 < ... < xj
    of a level extends by the set bits of the AND of rows x1..xj, all
    above xj, so each clique is made once: the levels below the top are
    listed from their set bits and the top is only counted, a popcount.
    The first vertices with |F(v)| >= 2 go in batches, largest |F(v)|
    first, each of at most _CELLS // |F(v)|^max(2, top - 1) of them: the
    adjacency of a batch and each level it unpacks hold at most _CELLS
    cells unless the batch is one vertex."""
    n = len(g.ptr) - 1
    counts = [n, len(g.edges[1])] + [0] * (top - 1)
    if top < 2:
        return counts
    up = np.bincount(g.edges[0][:, 0], minlength=n)  # |F(v)|
    first = np.flatnonzero(up >= 2)
    first = first[np.argsort(-up[first])]
    a = 0
    while a < len(first):
        width = int(up[first[a]])
        v = first[a:a + max(1, _CELLS // width ** max(2, top - 1))]
        a += len(v)
        # F(v) as rows padded by their last vertex, which stays in the band
        pos = np.arange(width)
        end, size = g.ptr[v + 1][:, None], up[v][:, None]
        f = g.nbr[np.minimum(end - size + pos, end - 1)]
        adj = g.table[g.off[f][:, :, None] + f[:, None, :]] < np.inf
        adj &= (pos[:, None] < pos) & (pos < size)[:, None, :]
        bits = np.packbits(adj, axis=2)
        # rows of the level: the batch row, then vertices of F(v) by position
        rows = np.argwhere(pos < size)
        for k in range(2, top + 1):
            meet = bits[rows[:, 0], rows[:, 1]]
            for x in rows[:, 2:].T:
                meet &= bits[rows[:, 0], x]
            if k == top:
                counts[k] += int(_POPCOUNT[meet].sum(dtype=np.int64))
            else:
                r, y = np.nonzero(np.unpackbits(meet, axis=1, count=width))
                rows = np.column_stack((rows[r], y))
                counts[k] += len(rows)
    return counts


def _levels(g: _Graph, above: int):
    """The edge level of g, then the above levels grown from it, each from
    the one before, pass by pass through g.grow. Every level but the last
    is a list of parts (vertex rows, diameters); the last is a generator of
    parts, never stored whole."""
    level = [g.edges]
    yield level
    for k in range(above):
        level = (part for p in level for part in g.grow(*p))
        if k < above - 1:
            level = list(level)
        yield level


def complex_at_scale(f: Filtration, s: float) -> SimplicialComplex:
    """The complex formed by all filtration entries with scale <= s."""
    return SimplicialComplex(simplex for simplex, scale in f if scale <= s)


def enclosing_radius(m: np.ndarray) -> float:
    """The smallest scale at which one vertex is within reach of all others.

    From that scale on the Rips complex is a cone on that vertex, hence
    contractible: no class of nonzero persistence is born or dies there.
    m is not checked here.
    """
    return float(np.asarray(m, dtype=np.float64).max(axis=1).min())


class _Graph:
    """The neighbourhood graph of the pairs i < j of weights w, one scipy
    CSR array over labels of its own: names[v] is the caller's vertex of
    label v, its neighbours, ascending, are the array's indices
    nbr[ptr[v]:ptr[v + 1]], and wt, its data, holds their weights.

    Every other weight is read from table, a band owned by the graph: vertex
    v's row holds width = min(n, 4b + 3) columns, with b the largest label
    span of a pair, and the weight of (v, l) sits at table[off[v] + l], inf
    where v and l are not a pair (v == l included). cofaces reads only pairs
    of two neighbours of one vertex, which are at most 2b labels apart, so
    every lookup lands in row v's own cells: O(1) and unclamped. The labels,
    the reverse Cuthill-McKee order of the array (Cuthill and McKee, 1969),
    keep b small. If a vertex has all others as neighbours, any labelling
    has b >= (n - 1) / 2: the input order is kept and the table is n x n.
    edges, the cells (v, l) with l > v in the array's order and their
    weights, starts every clique walk."""

    def __init__(self, i: np.ndarray, j: np.ndarray, w: np.ndarray, n: int):
        a = csr_array((np.tile(w, 2), (np.r_[i, j], np.r_[j, i])), shape=(n, n))
        self.names = np.arange(n)
        if (np.diff(a.indptr) < n - 1).all():
            self.names = reverse_cuthill_mckee(a, symmetric_mode=True)
            a = a[self.names][:, self.names]
        a.sort_indices()
        self.ptr, self.nbr, self.wt = (a.indptr.astype(np.intp, copy=False),
                                       a.indices.astype(np.intp, copy=False), a.data)
        del a  # not held while the table is filled
        v = np.arange(n)
        u = np.repeat(v, np.diff(self.ptr))  # each cell's own row
        b = int((self.nbr - u).max(initial=0))
        width = min(n, 4 * b + 3)
        self.off = v * width - np.clip(v - 2 * b - 1, 0, n - width)
        self.table = np.full(n * width, np.inf)
        self.table[self.off[u] + self.nbr] = self.wt
        up = self.nbr > u
        self.edges = np.column_stack((u[up], self.nbr[up])), self.wt[up]
        self.span = b
        # simplices per numpy pass, so that no pass exceeds _CELLS cells:
        # the 4,845 triangles of a 40-point helix (39 neighbours each) take
        # 12 passes, and a fresh run faults 160-290 pages, about 1,700 with
        # them in one pass of 1.5 MiB temporaries
        self.step = max(1, _CELLS // max(1, int(np.diff(self.ptr).max())))

    def cofaces(self, s: np.ndarray, diam: np.ndarray):
        """Per pass over step rows part of s, simplices (rows of two or more
        sorted vertices) of diameters diam, from row a: (a, part, l, d), l
        the candidate added vertices, padded rows of the first vertex's
        neighbours, and d the diameter of each part + l, inf where part + l
        is not a simplex of the graph."""
        for a in range(0, len(s), self.step):
            part = s[a:a + self.step]
            start, end = self.ptr[part[:, 0]], self.ptr[part[:, 0] + 1]
            pos = np.arange(int((end - start).max()))
            # a padded cell repeats the first vertex's last neighbour, which
            # keeps it in every row's band
            at = np.minimum(start[:, None] + pos, end[:, None] - 1)
            l, d = self.nbr[at], self.wt[at]
            np.maximum(d, diam[a:a + self.step, None], out=d)
            d[pos >= (end - start)[:, None]] = np.inf
            for v in part[:, 1:].T:  # at, no longer needed, holds the cells
                cells = np.add(self.off[v][:, None], l, out=at)
                np.maximum(d, self.table[cells], out=d)
            del at, cells  # not held while the pass is consumed
            yield a, part, l, d

    def grow(self, s: np.ndarray, diam: np.ndarray):
        """Per cofaces pass: the simplices one dimension up grown from its
        rows, each from its face without its largest vertex so that each
        clique is made once, and their diameters."""
        for _, part, l, d in self.cofaces(s, diam):
            r, c = np.nonzero((l > part[:, -1:]) & (d < np.inf))
            yield np.column_stack((part[r], l[r, c])), d[r, c]

    def keys(self, s: np.ndarray) -> np.ndarray:
        """The _keys of rows s, simplices of this graph."""
        return _keys(s.T, len(self.ptr) - 1, self.span)

    def first_pivots(self, s: np.ndarray, diam: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each simplex's earliest coface t: smallest diameter, then smallest
        added vertex, which among equal diameters is the lexicographically
        smallest vertex tuple. Returns the rows t, their diameters, inf
        where s has no coface, and the mask of apparent pairs: s is t's
        latest facet, the one that drops t's earliest vertex among the
        facets of largest diameter, read from t's pairs in the table."""
        pd = np.full(len(s), np.inf)
        pl = np.zeros(len(s), np.intp)
        for a, _, l, d in self.cofaces(s, diam):
            rows, j = np.arange(len(d)), d.argmin(axis=1)
            pd[a:a + len(j)], pl[a:a + len(j)] = d[rows, j], l[rows, j]
        t = np.sort(np.column_stack((s, pl)), axis=1)
        w = {(u, v): self.table[self.off[t[:, u]] + t[:, v]]
             for u, v in combinations(range(t.shape[1]), 2)}
        facets = [np.max([x for uv, x in w.items() if p not in uv], axis=0)
                  for p in range(t.shape[1])]
        latest = np.choose(np.argmax(facets, axis=0), t.T)
        return t, pd, (latest == pl) & (pd < np.inf)

    def coboundaries(self, s: np.ndarray, diam: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cofaces of simplices s (rows of sorted vertices) of diameters
        diam, one cofaces pass per step rows: flat arrays of their diameters
        and keys, row i's at ptr[i]:ptr[i + 1] sorted by (diameter, key),
        and ptr."""
        ds, keys = [np.empty(0)], [np.empty(0, np.int64)]
        rows = [np.empty(0, np.intp)]
        for a, part, l, d in self.cofaces(s, diam):
            r, c = np.nonzero(d < np.inf)
            d = d[r, c]
            t = np.sort(np.concatenate((part[r], l[r, c, None]), axis=1), axis=1)
            key = self.keys(t)
            order = np.lexsort((key, d, r))
            ds.append(d[order])
            keys.append(key[order])
            rows.append(r + a)
        ptr = np.searchsorted(np.concatenate(rows), np.arange(len(s) + 1))
        return np.concatenate(ds), np.concatenate(keys), ptr


def _matrix_pairs(m: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """The pairs i < j of the upper triangle of m within eps and their
    distances, read in row blocks."""
    n = m.shape[0]
    rows, cols, block = [], [], max(1, _CELLS // n)
    for a in range(0, n, block):
        r, c = np.nonzero(m[a:a + block] <= eps)
        keep = c > r + a
        rows.append(r[keep] + a)
        cols.append(c[keep])
    i, j = np.concatenate(rows), np.concatenate(cols)
    return i, j, m[i, j]


def _stopped_graph(pairs: Callable[[], tuple], n: int, eps: float) -> _Graph:
    """The graph of pairs() = (i, j, d), the pairs i < j within eps and
    their distances, stopped at the enclosing radius R if R <= eps: then
    some vertex has all others within eps, and R is the least largest
    distance of such a vertex. Only these locals hold the pairs, so the
    ones cut at R are freed before _Graph is built."""
    i, j, d = pairs()
    full = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) == n - 1
    if full.any():
        reach = np.zeros(n)
        np.maximum.at(reach, i, d)
        np.maximum.at(reach, j, d)
        keep = d <= min(eps, float(reach[full].min()))
        i, j, d = i[keep], j[keep], d[keep]
    return _Graph(i, j, d, n)


def _keys(cols, n: int, b: int):
    """Exact keys, in base b + 1 with digits v0 and each v_i - v0, of rows
    of m ascending vertices below n that span at most b, given as their m
    columns (int64 arrays, or the ints of one row): they sort like the
    rows. n (b + 1)^(m - 1), above every key, must be < 2^63."""
    if n * (b + 1) ** (len(cols) - 1) >= 1 << 63:
        raise DimensionTooLarge(
            f"keys of {len(cols)}-vertex simplices overflow int64 at {n} points")
    key = cols[0]
    for v in cols[1:]:
        key = key * (b + 1) + (v - cols[0])
    return key


def _vertices(key, m: int, b: int) -> list:
    """The row of m vertices whose _keys entry is key, or, for an int64
    array of keys, the m columns of their rows, as _keys takes them."""
    v0, *rest = (key // (b + 1) ** p for p in range(m - 1, -1, -1))
    return [v0, *(v0 + r % (b + 1) for r in rest)]


def _isin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each key in a is among the sorted keys b, by binary search:
    np.isin would sort b again for every part of a level."""
    if not len(b):
        return np.zeros(len(a), bool)
    return b.take(np.searchsorted(b, a), mode="clip") == a


def _pivot(col: list):
    """The least entry that the heap col holds an odd number of times, left
    at col[0] once the pairs of equal entries before it are dropped; None
    if there is none."""
    while col:
        low = heapq.heappop(col)
        if not col or col[0] != low:
            heapq.heappush(col, low)
            return low
        heapq.heappop(col)


def _h0(g: _Graph, s: np.ndarray, diam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kruskal's spanning forest of the edges s, in filtration order (by
    diameter, then key), as scipy's minimum_spanning_tree on the distinct,
    exact weights rank + 1 (+ 1, or rank 0 would read as no edge). Kruskal's
    forest of a prefix is its state after it, so a dense graph is not read
    whole: the prefix read starts at 4n edges, all of a graph of mean degree
    8, and doubles until the forest spans or holds every edge. Returns the
    H0 deaths, inf for each component, and the sorted keys of the merging
    edges, which need no H1 column."""
    order = np.lexsort((g.keys(s), diam))
    s, diam = s[order], diam[order]
    n = len(g.ptr) - 1
    end = 4 * n
    while True:
        e = s[:end]
        ranks = coo_array((np.arange(1.0, len(e) + 1), (e[:, 0], e[:, 1])), shape=(n, n))
        merging = minimum_spanning_tree(ranks).data.astype(np.intp) - 1
        if len(merging) == n - 1 or end >= len(s):
            break
        end *= 2
    deaths = np.concatenate((diam[merging], np.full(n - len(merging), np.inf)))
    return deaths, np.sort(g.keys(s[merging]))


def _cohomology(k: int, g: _Graph, parts, cleared: np.ndarray,
                pairs: list) -> np.ndarray:
    """Reduce the coboundaries of the k-simplices in parts, (rows,
    diameters) in any order, but those whose keys are in the sorted array
    cleared, in decreasing filtration order. A column that is its first
    pivot t's latest facet is apparent: no column before it holds t, so it
    owns t, and for k >= 1 it dies at birth; only its key and t's are
    kept. Parts are read once, so a generator level is never stored whole.

    The rest are sorted and each one with a coface reduces its coboundary
    on a heap, read from one batch built before the loop: the coboundaries
    of these columns and of the apparent owners of their first pivots. A
    reduced column owns its pivot and is what a later reduction adds; only
    an apparent owner met further down a reduction is built alone. Returns
    the sorted keys of the pivots, which need no column in dimension
    k + 1."""
    found = []
    for s, diam in parts:
        key = g.keys(s)
        s, diam, key = (x[~_isin(key, cleared)] for x in (s, diam, key))
        t, pd, ap = g.first_pivots(s, diam)
        t = g.keys(t)
        found.append((t[ap], key[ap], *(x[~ap] for x in (s, diam, key, t, pd))))
    if not found:
        return cleared[:0]
    tops, owners, s, diam, key, t, pd = map(np.concatenate, zip(*found))
    del found
    order = np.argsort(tops)
    tops, owners = tops[order], owners[order]
    read = pd < np.inf
    hit = read & _isin(t, tops)
    # each apparent owner of a hit pivot once, born at that pivot's diameter
    i, first = np.unique(np.searchsorted(tops, t[hit]), return_index=True)
    apparent = np.column_stack(_vertices(owners[i], k + 1, g.span))
    cob_d, cob_key, ptr = g.coboundaries(
        np.concatenate((s[read], apparent)),
        np.concatenate((diam[read], pd[hit][first])))
    # key of a batched column -> the bounds of its cells in cob_d and cob_key
    batch = dict(zip(np.concatenate((key[read], owners[i])).tolist(),
                     zip(ptr[:-1].tolist(), ptr[1:].tolist())))
    del s, t, apparent, ptr

    def coboundary(c: int, birth: float) -> list:
        """The cofaces of column c, a key, born at birth, as a sorted list
        of (diameter, key): its cells in the batch, or one built alone."""
        if c in batch:
            a, b = batch[c]
            return list(zip(cob_d[a:b].tolist(), cob_key[a:b].tolist()))
        d, key, _ = g.coboundaries(np.array([_vertices(c, k + 1, g.span)]),
                                   np.array([birth]))
        return list(zip(d.tolist(), key.tolist()))

    # pivot key -> reduced column of its owner
    owner: dict[int, list] = {}

    def column(d: float, top: int) -> list | None:
        """The column that owns the pivot (d, top), if one does."""
        if top in owner:
            return owner[top]
        i = tops.searchsorted(top)
        if i < len(tops) and tops[i] == top:  # its latest facet, at d
            return coboundary(int(owners[i]), d)
        return None

    order = np.lexsort((key, diam))[::-1]
    for c, birth, death in zip(*(x[order].tolist() for x in (key, diam, pd))):
        col = coboundary(c, birth) if death < math.inf else []
        while (low := _pivot(col)) and (add := column(*low)):
            for e in add:
                heapq.heappush(col, e)
        death, top = low or (math.inf, None)
        if low:  # else an essential class
            owner[top] = col
        pairs.append((k, birth, death))
    return np.sort(np.concatenate((tops, np.array(list(owner), np.int64))),
                   kind="stable")


def rips_persistence(m: np.ndarray, max_dim: int,
                     threshold: float) -> PersistenceDiagram:
    """H0 to H_max_dim of the Rips filtration of m up to threshold: the
    diagram of persistence_diagram(build_rips(m, ...), max_dim) without
    listing a single simplex of dimension max_dim + 1.

    As in build_rips, only the upper triangle of m is read into the
    result. The filtration stops at min(threshold, enclosing_radius(m)),
    which changes no pair of nonzero persistence.
    """
    RipsParams(max_dim, threshold)  # checks both
    m = _checked(m, max_dim)
    g = _stopped_graph(lambda: _matrix_pairs(m, threshold), len(m), threshold)
    return _diagram(g, max_dim)


def cloud_persistence(points: np.ndarray, max_dim: int,
                      threshold: float) -> PersistenceDiagram:
    """rips_persistence(pairwise_distances(points), max_dim, threshold),
    computing only the distances within the threshold (pairs_within); no
    coordinate is read past them.
    """
    RipsParams(max_dim, threshold)  # checks both
    _check_dimension(max_dim, len(points))
    g = _stopped_graph(lambda: pairs_within(points, threshold), len(points),
                       threshold)
    return _diagram(g, max_dim)


def _diagram(g: _Graph, max_dim: int) -> PersistenceDiagram:
    """H0 to H_max_dim of the clique filtration of g, by a spanning tree and
    cohomology with clearing: H0 and H1 read g.edges, and _levels grows
    the levels above from them."""
    pairs: list[tuple[int, float, float]] = []
    h0, cleared = _h0(g, *g.edges)
    for k, level in zip(range(1, max_dim + 1), _levels(g, max_dim - 1)):
        cleared = _cohomology(k, g, level, cleared, pairs)
    k, b, d = np.array(pairs, np.float64).reshape(-1, 3).T  # exact: small ints
    zeros = np.zeros(len(h0))
    k, b, d = (np.concatenate(c) for c in ((zeros, k), (zeros, b), (h0, d)))
    live = b != d
    return PersistenceDiagram._columns(k[live], b[live], d[live])
