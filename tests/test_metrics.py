import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_validate_metric
from ripsph import metrics
from ripsph.errors import NotSquare
from ripsph.metrics import pairs_within, pairwise_distances, validate_metric


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        m = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert m.tolist() == [[0.0, 5.0], [5.0, 0.0]]

    def test_single_point(self):
        assert pairwise_distances(np.array([[1.0, 2.0, 3.0]])).tolist() == [[0.0]]

    def test_exact_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        m = pairwise_distances(pts)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_result_is_readonly(self):
        m = pairwise_distances(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_memory_layout_changes_no_bit(self):
        pts = np.random.default_rng(4).normal(size=(300, 3))
        m = pairwise_distances(pts)
        assert m.tobytes() == pairwise_distances(np.asfortranarray(pts)).tobytes()
        i, j, d = pairs_within(pts[:, ::-1], math.inf)
        assert np.array_equal(d.view(np.int64),
                              pairwise_distances(pts[:, ::-1])[i, j].view(np.int64))

    @pytest.mark.parametrize("shape", [(0, 3), (3,)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(n, d\) point cloud with n >= 1"):
            pairwise_distances(np.zeros(shape))

    def test_overflow_rejected(self):
        # finite coordinates whose squared difference overflows to inf
        with pytest.raises(ValueError, match=r"distance \(0,1\) is inf"):
            pairwise_distances(np.array([[0.0, 0.0], [1e200, 0.0], [1.0, 1.0]]))


def sweep_cloud(kind, seed):
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 8
    if kind == "uniform":
        return rng.uniform(size=(30, dim))
    if kind == "grid":
        return rng.integers(0, 3, size=(30, dim)).astype(float)
    if kind == "duplicates":
        pts = rng.uniform(size=(20, dim))
        return np.concatenate([pts, pts[::2]])
    if kind == "small":
        return rng.normal(size=(30, dim)) * 1e-6
    if kind == "large":
        return rng.normal(size=(30, dim)) * 1e6 + 1e9
    if kind == "planar":
        # one first coordinate for all: a sweep along it would see every pair
        return np.column_stack([np.full(30, 0.5), rng.uniform(size=(30, dim))])
    if kind == "identical":
        # every pair at distance 0
        return np.tile(rng.uniform(size=dim), (12, 1))
    # x differences whose squares underflow to zero: at threshold 0 all
    # ten pairs are kept, at distance 0
    return np.column_stack([np.arange(5) * 1e-200, np.zeros((5, dim - 1))])


def as_triples(i, j, d):
    return sorted(zip(i.tolist(), j.tolist(), d.view(np.int64).tolist()))


class TestPairsWithin:
    """pairs_within keeps exactly the pairs the dense matrix holds within
    eps, each once as i < j, with the same distances bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["uniform", "grid", "duplicates", "small",
                                      "large", "underflow", "planar",
                                      "identical"])
    @pytest.mark.parametrize("where", ["zero", "median", "below", "at", "max",
                                       "inf"])
    def test_matches_the_matrix(self, kind, seed, where):
        pts = sweep_cloud(kind, seed)
        m = pairwise_distances(pts)
        radius = float(m.max(axis=1).min())
        eps = {"zero": 0.0, "median": float(np.median(m[np.triu_indices(len(m), 1)])),
               "below": float(np.nextafter(radius, 0.0)), "at": radius,
               "max": float(m.max()), "inf": math.inf}[where]
        i, j = np.nonzero(np.triu(m <= eps, 1))
        got = pairs_within(pts, eps)
        assert as_triples(*got) == as_triples(i, j, m[i, j])
        assert (got[0] < got[1]).all()
        assert len(set(zip(got[0].tolist(), got[1].tolist()))) == len(got[0])

    def test_single_point(self):
        i, j, d = pairs_within(np.array([[1.0, 2.0]]), math.inf)
        assert len(i) == len(j) == len(d) == 0

    def test_overflow_rejected_without_warning(self):
        pts = np.array([[0.0, 0.0], [1e200, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"distance \(0,1\) is inf"):
                pairs_within(pts, 1.0)

    def test_wide_spans_that_do_not_overflow(self):
        # past the box bound, yet every distance is finite
        pts = np.array([[0.0], [1e154], [1.25e154]])
        m = pairwise_distances(pts)
        i, j = np.triu_indices(3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_triples(*pairs_within(pts, math.inf)) == as_triples(
                i, j, m[i, j])

    @pytest.mark.parametrize("dim", [1, 4, 16])
    def test_walks_rows_only_past_the_box_bound(self, monkeypatch, dim):
        # opposite corners of a box whose squared half spans sum to 2^1020
        # exactly, at distance 2^511: no row is walked; a few ulps wider,
        # the rows are walked and every distance is still finite
        h = 2.0 ** 510 / math.sqrt(dim)
        walked = []
        rows = metrics._rows
        monkeypatch.setattr(metrics, "_rows",
                            lambda p: walked.append(len(p)) or rows(p))
        for x, walks in ((h, False), (h * (1.0 + 2.0 ** -50), True)):
            pts = np.array([np.full(dim, -h), np.full(dim, x)])
            walked.clear()
            i, j, d = pairs_within(pts, math.inf)
            assert bool(walked) == walks
            assert (i.tolist(), j.tolist()) == ([0], [1])
            assert d[0] == pairwise_distances(pts)[0, 1] < math.inf

    @staticmethod
    def far_cloud(n, x):
        """n uniform 3-D points, point 7 moved to the first coordinate x."""
        pts = np.random.default_rng(5).uniform(size=(n, 3))
        pts[7, 0] = x
        return pts

    def test_far_point_walks_rows_without_the_matrix(self, monkeypatch):
        # a half span of 5e153 squares past 2^1020, though no distance
        # overflows: the check walks the rows and keeps none
        pts = self.far_cloud(1500, 1e154)
        m = pairwise_distances(pts)
        assert m.max() < math.inf
        i, j = np.nonzero(np.triu(m <= 0.1, 1))
        expected = as_triples(i, j, m[i, j])
        del m

        def dense(points):
            raise AssertionError("pairs_within built the n x n matrix")
        walked = []
        rows = metrics._rows
        monkeypatch.setattr(metrics, "pairwise_distances", dense)
        monkeypatch.setattr(metrics, "_rows",
                            lambda p: walked.append(len(p)) or rows(p))
        tracemalloc.start()
        try:
            got = pairs_within(pts, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert as_triples(*got) == expected
        assert walked == [1500]
        assert peak < 1500 * 1500 * 8 / 10  # a tenth of the matrix

    def test_far_point_inside_the_box_bound_walks_no_row(self, monkeypatch):
        # x = 5e153: the half spans square to about 6.25e306 <= 2^1020, so
        # no distance can overflow and no row is read
        pts = self.far_cloud(1500, 5e153)
        m = pairwise_distances(pts)
        i, j = np.nonzero(np.triu(m <= 0.1, 1))
        expected = as_triples(i, j, m[i, j])
        del m

        def walk(points):
            raise AssertionError("pairs_within walked the distance rows")
        monkeypatch.setattr(metrics, "_rows", walk)
        assert as_triples(*pairs_within(pts, 0.1)) == expected

    @pytest.mark.parametrize("x", [1e200, -1e200, math.nan])
    def test_far_point_error_is_the_matrix_error(self, x):
        pts = self.far_cloud(300, x)
        with pytest.raises(ValueError) as dense:
            pairwise_distances(pts)
        with pytest.raises(ValueError) as sparse:
            pairs_within(pts, 0.1)
        assert str(sparse.value) == str(dense.value)
        assert str(dense.value).startswith("distance (0,7) is ")

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="point cloud"):
            pairs_within(np.zeros(shape), 1.0)


# EDGE is the largest float d with d - 1e-9 == 2.0, ABOVE the next one
EDGE = 2.0 + 1e-9
ABOVE = float(np.nextafter(EDGE, math.inf))
SPECIAL = [0.0, 0.5, 1.0, 2.0, 3.0, -1.0, math.nan, math.inf, -math.inf,
           1e308, -1e308, EDGE, ABOVE]


@st.composite
def special_matrices(draw):
    """(m, rows): m is n x n, n 0-40, of tied small values, NaN, +-inf,
    negative entries, 1e308 (whose sums overflow) and entries at the
    triangle tolerance, symmetric and zero on the diagonal or not; rows is
    None or the rows per block of the triangle check, 1-3."""
    n = draw(st.integers(0, 40))
    values = draw(st.sampled_from([SPECIAL[:5], [1.0, 2.0, EDGE, ABOVE], SPECIAL]))
    cells = draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))
    m = np.array(cells, dtype=np.float64).reshape(n, n)
    if draw(st.booleans()):
        m = np.triu(m, 1) + np.triu(m, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(m, draw(st.sampled_from(values)))
    return m, draw(st.none() | st.integers(1, 3))


class TestValidateMetric:
    def test_euclidean_matrix_passes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(2, 15), rng.integers(1, 4)))
            assert validate_metric(pairwise_distances(pts)) == []

    def test_symmetry_violation(self):
        violations = validate_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert any("Symmetry" in v and "(0,1)" in v for v in violations)

    def test_triangle_violation(self):
        m = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        violations = validate_metric(m)
        assert any("Triangle" in v and "(0,2)" in v for v in violations)

    def test_identity_violation(self):
        violations = validate_metric(np.array([[0.5]]))
        assert any("Identity" in v for v in violations)

    def test_positivity_violation(self):
        m = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert any("Positivity" in v for v in validate_metric(m))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate_metric(np.zeros((2, 3)))

    def test_planted_violations_match_oracle(self):
        # unit grid: many tied distances, so tied two-step paths
        m = pairwise_distances(np.array(
            [[x, y] for x in range(4) for y in range(3)], dtype=float)).copy()
        m[3, 3] = 0.5                 # identity
        m[1, 4] += 0.25               # symmetry
        m[2, 5] = m[5, 2] = 0.0       # positivity
        m[6, 7] = -1.0                # positivity and symmetry
        m[0, 11] = m[11, 0] = 9.0     # triangle, tied intermediates
        m[8, 10] = np.nan             # symmetry; no triangle through NaN
        got = validate_metric(m)
        assert got == naive_validate_metric(m)
        assert [v.split()[0] for v in got[:2]] == ["Identity", "Symmetry"]
        # (1,1) and (2,1) tie as midpoints from (0,0) to (3,2): the first wins
        assert (f"Triangle violation (0,11): {float(m[0, 11])!r} > "
                f"{float(m[0, 4])!r} + {float(m[4, 11])!r}") in got
        assert m[0, 4] + m[4, 11] == m[0, 7] + m[7, 11]

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
    def test_tied_integer_matrices_match_oracle(self, n):
        # entries 0-3 tie many two-step sums: each message names the first j
        rng = np.random.default_rng(n)
        m = rng.integers(0, 4, size=(n, n)).astype(float)
        m = np.where(rng.random((n, n)) < 0.8, m.T, m)  # mostly symmetric
        assert validate_metric(m) == naive_validate_metric(m)

    def test_values_print_as_python_floats(self):
        m = np.array([[0.5, 0.0, 3.0], [0.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        assert validate_metric(m) == [
            "Identity violation at (0,0): 0.5",
            "Positivity violation at (0,1): 0.0",
            "Triangle violation (0,2): 3.0 > 0.0 + 1.0"]

    def test_triangle_tolerance_edge(self):
        # d(0,1) + d(1,2) is 2.0; EDGE - 1e-9 rounds to exactly 2.0
        assert EDGE - metrics.TRIANGLE_TOL == 2.0 < ABOVE - metrics.TRIANGLE_TOL
        for d, flagged in ((EDGE, False), (ABOVE, True)):
            m = np.array([[0.0, 1.0, d], [1.0, 0.0, 1.0], [d, 1.0, 0.0]])
            assert bool(validate_metric(m)) is flagged
            assert validate_metric(m) == naive_validate_metric(m)

    @settings(max_examples=150, deadline=None)
    @given(case=special_matrices())
    def test_matches_oracle(self, case):
        m, rows = case
        with warnings.catch_warnings():
            # sums of 1e308 overflow, inf - inf is NaN, as in the oracle
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = naive_validate_metric(m)
            if rows is None:
                assert validate_metric(m) == expected
            else:
                # a few rows per block: the blocks split every column
                with mock.patch.object(metrics, "_CELLS", rows * len(m)):
                    assert validate_metric(m) == expected

    def test_memory_stays_below_one_matrix(self):
        # the triangle check holds no n x n float temporary: only a buffer
        # of _CELLS cells and the boolean masks of the exact checks
        n = 600
        m = pairwise_distances(np.random.default_rng(0).random((n, 3)))
        tracemalloc.start()
        try:
            assert validate_metric(m) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m.nbytes


class TestCloudViolations:
    """_cloud_violations(p, pairwise_distances(p)) skips the triangle scan
    only where its rounding bound shows the scan would flag no pair: it
    returns validate_metric's messages for every cloud."""

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_validate_metric(self, dim):
        rng = np.random.default_rng(dim)
        for scale in 10.0 ** np.arange(-6, 13):
            for shape in ("uniform", "line", "duplicates"):
                n = int(rng.integers(2, 20))
                p = rng.normal(size=(n, dim))
                if shape == "line":  # collinear up to noise far below scale
                    p = (rng.random((n, 1)) * p[0]
                         + rng.normal(0.0, 1e-9, (n, dim)))
                if shape == "duplicates":
                    p = np.concatenate((p, p[:(n + 1) // 2]))
                p = (p + rng.normal(size=dim)) * scale
                m = pairwise_distances(p)
                got = metrics._cloud_violations(p, m)
                assert got == validate_metric(m)
                if shape == "duplicates":
                    assert f"Positivity violation at (0,{n}): 0.0" in got

    def test_rounding_violation_is_reported(self):
        # nearly collinear at 1e7: the distances' rounding alone makes the
        # scan flag pairs, and the bound must not skip it
        rng = np.random.default_rng(0)
        t = np.sort(rng.random(12))
        p = np.column_stack((t, 0.37 * t + rng.normal(0.0, 1e-9, 12), 0.11 * t))
        p = p * 1e7 + rng.random(3)
        m = pairwise_distances(p)
        expected = validate_metric(m)
        assert expected and all(v.startswith("Triangle") for v in expected)
        assert metrics._cloud_violations(p, m) == expected

    @pytest.mark.parametrize("scale, scanned", [(1.0, False), (1e4, False),
                                                (1e5, True), (1e12, True)])
    def test_scan_runs_only_past_the_bound(self, scale, scanned):
        # 3-D points in the unit cube: the bound clears a largest distance
        # below about 1.02e5, not the cube scaled by 1e5
        p = np.random.default_rng(0).random((50, 3)) * scale
        m = pairwise_distances(p)
        with mock.patch.object(metrics, "_triangle_violations",
                               wraps=metrics._triangle_violations) as scan:
            assert metrics._cloud_violations(p, m) == []
        assert scan.called is scanned


class TestIsometryInvariance:
    def test_translation_and_rotation(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(25, 3))
        base = pairwise_distances(pts)
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                        [np.sin(theta), np.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        moved = pts @ rot.T + np.array([3.0, -7.0, 0.5])
        assert np.allclose(pairwise_distances(moved), base, atol=1e-9)

