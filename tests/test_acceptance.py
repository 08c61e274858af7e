"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 needs an external 111-point coordinate file and is
skipped unless RIPSPH_DNA_CSV points at it.
"""
import math
import os
import random
import time

import numpy as np
import pytest

from conftest import (hexagon_complex, octahedron_boundary, torus_7,
                      two_hexagons)
from oracles import (exhaustive_bottleneck, exhaustive_wasserstein,
                     naive_reduction_diagram, union_find_h0)
from ripsph.cli import main
from ripsph.core import (Chain, Filtration, PersistenceDiagram,
                         PersistencePair, Simplex)
from ripsph.distances import bottleneck_distance, wasserstein_distance
from ripsph.homology import (betti_numbers, boundary_of_chain,
                             boundary_of_simplex)
from ripsph.metrics import pairwise_distances
from ripsph.persistence import (betti_at_scale, persistence_diagram,
                                read_diagram_csv, significant_features)
from ripsph.rips import (RipsParams, build_rips, complex_at_scale,
                         rips_persistence)

SQRT2 = math.sqrt(2.0)


def as_multiset(diagram):
    return sorted((p.dimension, p.birth, p.death) for p in diagram)


def rips_diagram(pts, max_dim=1, threshold=None):
    m = pairwise_distances(pts)
    if threshold is None:
        threshold = float(m.max())
    f = build_rips(m, RipsParams(max_dim, threshold))
    return f, persistence_diagram(f, max_dim=max_dim)


def test_criterion_1_common_shapes_betti_table():
    start = time.perf_counter()
    assert betti_numbers(hexagon_complex(), 2) == (1, 1, 0)
    assert betti_numbers(octahedron_boundary(), 2) == (1, 0, 1)
    assert betti_numbers(torus_7(), 2) == (1, 2, 1)
    assert betti_numbers(two_hexagons(), 2) == (2, 2, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS (common shapes, {elapsed * 1000:.1f} ms)")


def test_criterion_2_six_edge_cycle_boundary_is_zero():
    cycle = Chain(1, [Simplex((i, (i + 1) % 6)) for i in range(6)])
    assert boundary_of_chain(cycle).is_zero
    print("\nACCEPTANCE 2: PASS (six-edge cycle bounds to zero)")


def test_criterion_3_double_boundary_vanishes():
    rng = random.Random(101)
    failures = 0
    for _ in range(1000):
        dim = rng.randint(2, 5)
        s = Simplex(rng.sample(range(60), dim + 1))
        if not boundary_of_chain(boundary_of_simplex(s)).is_zero:
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 3: PASS (1000 random simplices, d∘d = 0)")


def test_criterion_4_oracle_equivalence_on_random_clouds():
    rng = random.Random(103)
    for trial in range(200):
        n = rng.randint(4, 10)
        d = rng.choice([2, 3])
        max_dim = 2 if n >= 5 else 1
        pts = np.array([[rng.uniform(0, 1) for _ in range(d)]
                        for _ in range(n)])
        m = pairwise_distances(pts)
        f = build_rips(m, RipsParams(max_dim, float(m.max())))
        diagram = persistence_diagram(f, max_dim=max_dim)
        # (i) independent naive reduction
        assert as_multiset(diagram) == naive_reduction_diagram(f, max_dim=max_dim)
        # (ii) static Betti numbers scale by scale
        for s in f.scales():
            static = betti_numbers(complex_at_scale(f, s), max_dim)
            assert betti_at_scale(diagram, s, max_dim=max_dim) == static
        # H0 against the union-find elder-rule sweep
        h0 = sorted((p.birth, p.death) for p in diagram.in_dimension(0))
        assert h0 == union_find_h0(f)
    print("\nACCEPTANCE 4: PASS (200 random clouds vs three oracles)")


def test_criterion_5_unit_square_analytic():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    start = time.perf_counter()
    _, diagram = rips_diagram(pts, max_dim=1, threshold=2.0)
    elapsed = time.perf_counter() - start
    h0 = diagram.in_dimension(0)
    h1 = diagram.in_dimension(1)
    finite_h0 = [p for p in h0 if not p.is_essential]
    assert len(finite_h0) == 3 and all(p.death == 1.0 for p in finite_h0)
    assert sum(p.is_essential for p in h0) == 1
    assert len(h1) == 1
    assert h1[0].birth == 1.0
    assert abs(h1[0].death - SQRT2) <= 1e-12
    assert elapsed < 0.010
    print(f"\nACCEPTANCE 5: PASS (unit square, {elapsed * 1000:.2f} ms)")


def test_criterion_6_circle_sampling():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, 20)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    _, diagram = rips_diagram(pts, max_dim=1)
    significant = significant_features(diagram, 0.2)
    h1 = significant.in_dimension(1)
    assert len(h1) == 1
    assert h1[0].persistence > 0.5
    mid = (h1[0].birth + h1[0].death) / 2
    assert betti_at_scale(diagram, mid, max_dim=1) == (1, 1)
    print("\nACCEPTANCE 6: PASS (20-point circle, one H1 loop)")


def test_criterion_7_distance_oracles_and_axioms():
    rng = random.Random(107)

    def random_points(k):
        out = []
        for _ in range(k):
            b = rng.uniform(0, 2)
            out.append((b, b + rng.uniform(0, 2)))
        return out

    for _ in range(100):
        fa = random_points(rng.randint(0, 5))
        fb = random_points(rng.randint(0, 5))
        a = PersistenceDiagram([PersistencePair(1, b, d) for b, d in fa])
        b = PersistenceDiagram([PersistencePair(1, x, y) for x, y in fb])
        assert bottleneck_distance(a, b, 1) == exhaustive_bottleneck(fa, fb)
        assert wasserstein_distance(a, b, 1) == pytest.approx(
            exhaustive_wasserstein(fa, fb), abs=1e-9)
    # metric axioms on a fixed family
    diagrams = [PersistenceDiagram([PersistencePair(1, b, d)
                                    for b, d in random_points(3)])
                for _ in range(8)]
    for dist in (bottleneck_distance, wasserstein_distance):
        for a in diagrams:
            assert dist(a, a, 1) == 0.0
            for b in diagrams:
                assert dist(a, b, 1) == dist(b, a, 1)
                for c in diagrams:
                    assert dist(a, c, 1) <= dist(a, b, 1) + dist(b, c, 1) + 1e-9
    print("\nACCEPTANCE 7: PASS (100 oracle pairs, metric axioms)")


def test_criterion_8_stability_under_jitter():
    eta = 0.05
    base_angles = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    base = np.stack([np.cos(base_angles), np.sin(base_angles)], axis=1)
    _, reference = rips_diagram(base, max_dim=1)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        theta = rng.uniform(0, 2 * np.pi, 20)
        radius = eta * np.sqrt(rng.uniform(0, 1, 20))
        jittered = base + np.stack([radius * np.cos(theta),
                                    radius * np.sin(theta)], axis=1)
        _, moved = rips_diagram(jittered, max_dim=1)
        worst = max(worst, bottleneck_distance(reference, moved, 1))
    assert worst <= 2 * eta
    print(f"\nACCEPTANCE 8: PASS (50 jitter seeds, worst {worst:.4f} <= {2 * eta})")


@pytest.mark.skipif("RIPSPH_DNA_CSV" not in os.environ,
                    reason="external 111-point coordinate file not provided")
def test_criterion_9_dna_reproduction():
    from ripsph.ingestion import load_csv
    pts = load_csv(open(os.environ["RIPSPH_DNA_CSV"]).read())
    assert pts.shape == (111, 3)
    m = pairwise_distances(pts)
    diagram = rips_persistence(m, 2, float(m.max()))
    # operator-chosen threshold: the largest gap in sorted H1 persistences
    h1 = sorted(p.persistence for p in diagram.in_dimension(1)
                if not p.is_essential)
    gaps = [(b - a, (a + b) / 2) for a, b in zip(h1, h1[1:])]
    threshold = max(gaps)[1] if gaps else 0.0
    significant = significant_features(diagram, threshold)
    assert sum(p.is_essential for p in significant.in_dimension(0)) == 1
    assert len(significant.in_dimension(1)) == 3
    assert len(significant.in_dimension(2)) == 0
    print("\nACCEPTANCE 9: PASS (111-point DNA cloud)")


def double_helix(n, seed):
    """n residues alternating between the two strands of a double helix:
    10.5 residues per turn, radius 10 A, rise 3.4 A, jitter sigma 0.3 A."""
    step, strand = np.arange(n) // 2, np.arange(n) % 2
    angle = 2 * np.pi * step / 10.5 + np.pi * strand
    pts = np.column_stack([10 * np.cos(angle), 10 * np.sin(angle), 3.4 * step])
    return pts + np.random.default_rng(seed).normal(0.0, 0.3, pts.shape)


def test_paper_shaped_double_helix_run(tmp_path):
    # criterion 9's shape, generated: 111 points, H0-H2 at the default
    # threshold, about 6.2M simplices below the largest distance
    pts = double_helix(111, seed=0)
    source, out = tmp_path / "dna.csv", tmp_path / "diagram.csv"
    source.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in pts) + "\n")
    start = time.perf_counter()
    assert main(["run", str(source), "--max-dimension", "2",
                 "--diagram-csv", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 20.0
    diagram = read_diagram_csv(out.read_text())
    m = pairwise_distances(pts)
    skeleton = Filtration(
        [(Simplex((v,)), 0.0) for v in range(len(pts))]
        + [(Simplex((i, j)), float(m[i, j]))
           for i in range(len(pts)) for j in range(i + 1, len(pts))])
    assert (sorted((p.birth, p.death) for p in diagram.in_dimension(0))
            == union_find_h0(skeleton))
    assert sum(p.is_essential for p in diagram) == 1
    # H1 referee: the boundary reduction at max_dim 1 on a smaller helix
    small = pairwise_distances(double_helix(60, seed=0))
    top = float(small.max())
    reference = persistence_diagram(build_rips(small, RipsParams(1, top)),
                                    max_dim=1)
    full = rips_persistence(small, 2, top)
    assert PersistenceDiagram(p for p in full if p.dimension <= 1) == reference
    assert reference.in_dimension(1)
    # H2 referee: the boundary reduction at max_dim 2 on a 36-point helix,
    # 66,711 filtration entries
    small = pairwise_distances(double_helix(36, seed=0))
    top = float(small.max())
    reference = persistence_diagram(build_rips(small, RipsParams(2, top)),
                                    max_dim=2)
    assert rips_persistence(small, 2, top) == reference
    assert reference.in_dimension(2)
    print(f"\nPAPER-SHAPED RUN: PASS (111-point double helix, H0-H2, "
          f"{elapsed:.2f} s)")


def test_criterion_10_run_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 5, size=(12, 3))
    source = tmp_path / "cloud.csv"
    source.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in pts) + "\n")
    outputs = []
    for attempt in range(2):
        files = {"--diagram-csv": tmp_path / f"d{attempt}.csv",
                 "--barcode-svg": tmp_path / f"b{attempt}.svg",
                 "--diagram-svg": tmp_path / f"p{attempt}.svg",
                 "--betti-table": tmp_path / f"t{attempt}.txt"}
        args = ["run", str(source), "--max-dimension", "1"]
        for flag, path in files.items():
            args += [flag, str(path)]
        assert main(args) == 0
        outputs.append(tuple(path.read_bytes() for path in files.values()))
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 10: PASS (byte-identical outputs across runs)")
