import math

import numpy as np
import pytest

from ripsph import cli, rips
from ripsph.cli import main
from ripsph.core import PersistencePair
from ripsph.homology import betti_numbers
from ripsph.metrics import pairwise_distances
from ripsph.persistence import betti_at_scale, persistence_diagram, read_diagram_csv
from ripsph.rips import RipsParams, build_rips, complex_at_scale


def circle_csv(tmp_path, n=6, name="circle.csv"):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    path = tmp_path / name
    path.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")
    return path, pts


def pdb_file(tmp_path, n=111):
    lines = []
    rng = np.random.default_rng(8)
    coords = rng.uniform(-20, 20, size=(n, 3))
    for i, (x, y, z) in enumerate(coords, start=1):
        lines.append(f"ATOM  {i:>5}  CA  GLY A{i:>4}    "
                     f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00")
    path = tmp_path / "model.pdb"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRun:
    def test_circle_defaults(self, tmp_path, capsys):
        path, _ = circle_csv(tmp_path)
        out_csv = tmp_path / "diagram.csv"
        assert main(["run", str(path), "--max-dimension", "1",
                     "--diagram-csv", str(out_csv)]) == 0
        diagram = read_diagram_csv(out_csv.read_text())
        h0 = diagram.in_dimension(0)
        h1 = diagram.in_dimension(1)
        assert sum(p.is_essential for p in h0) == 1
        assert len(h1) == 1

    def test_pdb_input_prints_betti_table(self, tmp_path, capsys):
        path = pdb_file(tmp_path)
        assert main(["run", str(path), "--max-dimension", "1",
                     "--threshold", "8.0"]) == 0
        out = capsys.readouterr().out
        assert "beta_0" in out and "beta_1" in out

    def test_nonexistent_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_3(self, tmp_path, capsys):
        path, _ = circle_csv(tmp_path)
        assert main(["run", str(path), "--min-persistence", "-1"]) == 3

    def test_dimension_too_large_exits_3(self, tmp_path, capsys):
        path, _ = circle_csv(tmp_path, n=3)
        assert main(["run", str(path), "--max-dimension", "5"]) == 3

    @pytest.mark.parametrize("argv, engine", [
        (["run"], "cloud_persistence"),
        # validate's engine runs before any line of its report is printed
        (["validate", "--threshold", "1.5"], "_counts_and_betti")],
        ids=["run", "validate"])
    @pytest.mark.parametrize("message, shown", [
        ("", "allocation failed"),
        ("Unable to allocate 2.98 GiB for an array with shape (20000, 20000) "
         "and data type float64", "Unable to allocate 2.98 GiB")])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch,
                                   message, shown, argv, engine):
        def too_large(*args):
            raise MemoryError(message)
        monkeypatch.setattr(cli, engine, too_large)
        path, _ = circle_csv(tmp_path)
        assert main([argv[0], str(path), *argv[1:]]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: out of memory: {shown}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_radius_convention_doubles_threshold(self, tmp_path):
        path, pts = circle_csv(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", str(path), "--max-dimension", "1",
                     "--threshold", "0.6", "--scale-convention", "radius",
                     "--diagram-csv", str(a)]) == 0
        assert main(["run", str(path), "--max-dimension", "1",
                     "--threshold", "1.2", "--diagram-csv", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_deterministic_outputs(self, tmp_path):
        path, _ = circle_csv(tmp_path)
        first = {}
        second = {}
        for store in (first, second):
            args = ["run", str(path), "--max-dimension", "1"]
            for flag, name in (("--diagram-csv", "d.csv"),
                               ("--barcode-svg", "b.svg"),
                               ("--diagram-svg", "p.svg")):
                args += [flag, str(tmp_path / name)]
            assert main(args) == 0
            for name in ("d.csv", "b.svg", "p.svg"):
                store[name] = (tmp_path / name).read_bytes()
        assert first == second


class TestBetti:
    def test_unit_square_diagram_at_mid_scale(self, tmp_path, capsys):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        path = tmp_path / "sq.csv"
        path.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts))
        out_csv = tmp_path / "diagram.csv"
        assert main(["run", str(path), "--max-dimension", "1",
                     "--diagram-csv", str(out_csv)]) == 0
        capsys.readouterr()
        assert main(["betti", str(out_csv), "--scale", "1.2"]) == 0
        assert "beta_0=1 beta_1=1" in capsys.readouterr().out

    def test_agrees_with_library(self, tmp_path, capsys):
        path, pts = circle_csv(tmp_path, n=8)
        out_csv = tmp_path / "diagram.csv"
        main(["run", str(path), "--max-dimension", "1",
              "--diagram-csv", str(out_csv)])
        m = pairwise_distances(pts)
        f = build_rips(m, RipsParams(1, float(m.max())))
        d = persistence_diagram(f, max_dim=1)
        for s in [0.0, 0.5, 1.0, 1.5, 2.0]:
            capsys.readouterr()
            assert main(["betti", str(out_csv), "--scale", repr(s)]) == 0
            out = capsys.readouterr().out.split()
            got = tuple(int(tok.split("=")[1]) for tok in out)
            assert got == betti_at_scale(d, s)[:len(got)]

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,diagram\n1,2,3\n")
        assert main(["betti", str(bad), "--scale", "1.0"]) == 2

    @pytest.mark.parametrize("row", ["-1,0.0,1.0", "0,nan,1.0", "0,0.0,nan",
                                     "0,inf,inf"])
    def test_invalid_pair_exits_2(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"dim,birth,death\n0,0.0,inf\n{row}\n1,0.2,0.5\n")
        assert main(["betti", str(bad), "--scale", "0.3"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["betti", str(missing), "--scale", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {missing}: ")


class TestDistance:
    def test_identical_files_zero(self, tmp_path, capsys):
        path, _ = circle_csv(tmp_path)
        out_csv = tmp_path / "diagram.csv"
        main(["run", str(path), "--max-dimension", "1",
              "--diagram-csv", str(out_csv)])
        capsys.readouterr()
        assert main(["distance", str(out_csv), str(out_csv),
                     "--kind", "bottleneck", "--dim", "1"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_point_vs_empty(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("dim,birth,death\n1,1.0,3.0\n")
        b.write_text("dim,birth,death\n")
        assert main(["distance", str(a), str(b), "--dim", "1"]) == 0
        assert float(capsys.readouterr().out) == 1.0

    def test_mismatched_essentials_print_inf(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("dim,birth,death\n0,0.0,inf\n")
        b.write_text("dim,birth,death\n")
        assert main(["distance", str(a), str(b), "--dim", "0"]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        text = "dim,birth,death\n1,0.0,1.0\n1,0.25,2.0\n"
        plain = tmp_path / "plain.csv"
        excel = tmp_path / "excel.csv"
        other = tmp_path / "other.csv"
        plain.write_text(text)
        excel.write_bytes(b"\xef\xbb\xbf" + text.encode())
        other.write_text("dim,birth,death\n1,0.0,1.5\n")
        for kind in ("bottleneck", "wasserstein"):
            assert main(["distance", str(plain), str(other), "--kind", kind,
                         "--dim", "1"]) == 0
            expected = capsys.readouterr().out
            assert main(["distance", str(excel), str(other), "--kind", kind,
                         "--dim", "1"]) == 0
            assert capsys.readouterr().out == expected
        assert main(["distance", str(excel), str(plain), "--dim", "1"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_malformed_csv_exits_2(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("nope\n")
        assert main(["distance", str(a), str(a)]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("dim,birth,death\n")
        missing = tmp_path / "b.csv"
        assert main(["distance", str(a), str(missing)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {missing}: ")


@pytest.mark.parametrize("argv", [
    ["run", "{cloud}", "--max-dimension", "-1"],
    ["run", "{cloud}", "--threshold", "-1"],
    ["run", "{cloud}", "--threshold", "nan"],
    ["run", "{cloud}", "--min-persistence", "nan"],
    ["run", "{cloud}", "--scale", "nan"],
    ["run", "{tiny}", "--max-dimension", "2"],
    ["betti", "{diagram}", "--scale", "nan"],
    ["validate", "{cloud}", "--max-dimension", "-1"],
    ["validate", "{cloud}", "--threshold", "-1"],
    ["validate", "{cloud}", "--threshold", "nan"],
    ["validate", "{tiny}", "--threshold", "2", "--max-dimension", "5"],
    ["distance", "{diagram}", "{diagram}", "--dim", "-1"],
])
def test_bad_configuration_exits_3_before_output(tmp_path, capsys, argv):
    cloud, _ = circle_csv(tmp_path)
    tiny, _ = circle_csv(tmp_path, n=3, name="tiny.csv")
    diagram = tmp_path / "diagram.csv"
    diagram.write_text("dim,birth,death\n0,0.0,inf\n")
    assert main([a.format(cloud=cloud, tiny=tiny, diagram=diagram)
                 for a in argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_coordinates_exit_2(tmp_path, capsys, command, value):
    path = tmp_path / "cloud.csv"
    path.write_text(f"0,0\n1,{value}\n1,1\n")
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: point cloud contains NaN or infinite coordinates\n"


class TestPdbExtract:
    def test_writes_csv(self, tmp_path):
        path = pdb_file(tmp_path, n=10)
        out = tmp_path / "points.csv"
        assert main(["pdb-extract", str(path), "--output", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 10

    def test_stdout_default(self, tmp_path, capsys):
        path = pdb_file(tmp_path, n=3)
        assert main(["pdb-extract", str(path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_nan_coordinate_exits_2(self, tmp_path, capsys):
        path = pdb_file(tmp_path, n=3)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:30] + f"{math.nan:8.3f}" + lines[1][38:]
        path.write_text("\n".join(lines) + "\n")
        assert main(["pdb-extract", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: point cloud contains NaN or infinite coordinates\n"


class TestValidate:
    @pytest.mark.parametrize("k, expected", [
        ("0", "points: 9  dimension: 2\n"
              "metric violations: 0\n"
              "filtration entries: 23\n"
              "complex violations: 0\n"
              "beta_0\n"
              "     1\n"),
        ("2", "points: 9  dimension: 2\n"
              "metric violations: 0\n"
              "filtration entries: 27\n"
              "complex violations: 0\n"
              "beta_0  beta_1  beta_2\n"
              "     1       2       0\n"),
    ])
    def test_golden_stdout(self, tmp_path, capsys, k, expected):
        # a ring of 8 grid points around an off-centre point: two holes at 1.3
        path = tmp_path / "ring.csv"
        path.write_text("0,0\n1,0\n2,0\n2,1\n2,2\n1,2\n0,2\n0,1\n1,1.25\n")
        assert main(["validate", str(path), "--threshold", "1.3",
                     "--max-dimension", k]) == 0
        out = capsys.readouterr().out
        assert out == expected
        m = pairwise_distances(np.loadtxt(path, delimiter=",", ndmin=2))
        entries = len(build_rips(m, RipsParams(int(k), 1.3)))
        assert f"filtration entries: {entries}\n" in out

    @pytest.mark.parametrize("argv", [["validate", "{path}", "--threshold", "1"],
                                      ["run", "{path}"],
                                      ["run", "{path}", "--threshold", "1"],
                                      ["validate", "{path}"]])
    def test_overflowing_distances_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.csv"
        path.write_text("0,0\n1e200,0\n1,1\n2,0\n")  # (1e200)**2 is inf
        assert main([a.format(path=path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_one_graph_for_counts_and_betti_numbers(self, tmp_path, capsys,
                                                     monkeypatch):
        built = []
        init = rips._Graph.__init__
        monkeypatch.setattr(rips._Graph, "__init__",
                            lambda g, *args: built.append(g) or init(g, *args))
        reduced = []
        monkeypatch.setattr(rips, "_diagram", lambda *args: reduced.append(args))
        path, _ = circle_csv(tmp_path, n=12)
        # above the enclosing radius 2: one graph, a cone, counted and not
        # reduced
        assert main(["validate", str(path), "--threshold", "3",
                     "--max-dimension", "2"]) == 0
        assert len(built) == 1 and reduced == []
        assert capsys.readouterr().out.endswith("     1       0       0\n")

    def test_duplicate_point_prints_a_plain_float(self, tmp_path, capsys):
        # the same bytes under numpy 1 and 2: a Python float, not np.float64
        path = tmp_path / "dup.csv"
        path.write_text("0,0\n0,0\n1,1\n")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == ("points: 3  dimension: 2\n"
                                           "metric violations: 1\n"
                                           "  Positivity violation at (0,1): 0.0\n")

    def test_clean_cloud(self, tmp_path, capsys):
        path, _ = circle_csv(tmp_path)
        assert main(["validate", str(path), "--threshold", "2.0",
                     "--max-dimension", "1"]) == 0
        out = capsys.readouterr().out
        assert "metric violations: 0" in out
        assert "complex violations: 0" in out

    @pytest.mark.parametrize("cloud", ["circle", "noisy", "grid", "blobs"])
    @pytest.mark.parametrize("threshold", ["0.3", "0.7", "1.5", "inf"])
    def test_betti_table_matches_static_homology(self, tmp_path, capsys,
                                                 cloud, threshold):
        rng = np.random.default_rng(61)
        if cloud == "circle":
            pts = circle_csv(tmp_path, n=12)[1]
        elif cloud == "noisy":
            angles = rng.uniform(0, 2 * np.pi, 16)
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            pts += rng.normal(scale=0.05, size=pts.shape)
        elif cloud == "grid":  # many tied distances
            pts = np.array([[x, y] for x in range(4) for y in range(3)]) * 0.5
        else:
            pts = np.concatenate([rng.normal(c, 0.2, size=(6, 3))
                                  for c in (0.0, 1.0)])
        path = tmp_path / "cloud.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in p) + "\n"
                                for p in pts))
        assert main(["validate", str(path), "--threshold", threshold,
                     "--max-dimension", "2"]) == 0
        table = capsys.readouterr().out.splitlines()[-1]
        m = pairwise_distances(pts)
        f = build_rips(m, RipsParams(2, float(threshold)))
        expected = betti_numbers(complex_at_scale(f, float(threshold)), 2)
        assert tuple(int(b) for b in table.split()) == expected


def test_no_pair_objects_on_the_command_paths(tmp_path, capsys, monkeypatch):
    # a diagram stays three numpy columns from the engine to every output:
    # run, validate and distance make no PersistencePair
    path, _ = circle_csv(tmp_path, n=12)
    made = []
    check = PersistencePair.__post_init__
    monkeypatch.setattr(PersistencePair, "__post_init__",
                        lambda p: made.append(p) or check(p))
    out = tmp_path / "d.csv"
    assert main(["run", str(path), "--max-dimension", "1", "--diagram-csv", str(out),
                 "--barcode-svg", str(tmp_path / "b.svg"),
                 "--diagram-svg", str(tmp_path / "p.svg"), "--scale", "0.6"]) == 0
    assert main(["validate", str(path), "--threshold", "1.5",
                 "--max-dimension", "1"]) == 0
    for kind in ("bottleneck", "wasserstein"):
        assert main(["distance", str(out), str(out), "--kind", kind]) == 0
    assert made == []
    # iterating a diagram is what makes them
    assert len(list(read_diagram_csv(out.read_text()))) == len(made) == 13
