import math
import re

import pytest

from ripsph.core import PersistenceDiagram, PersistencePair
from ripsph.errors import EmptyDiagram
from ripsph.render import (RenderOptions, render_barcode_svg,
                           render_diagram_svg, write_betti_table)

SQRT2 = math.sqrt(2.0)


def unit_square_diagram():
    return PersistenceDiagram([
        PersistencePair(0, 0.0, 1.0), PersistencePair(0, 0.0, 1.0),
        PersistencePair(0, 0.0, 1.0), PersistencePair(0, 0.0, math.inf),
        PersistencePair(1, 1.0, SQRT2)])


def late_essential_diagram():
    """An H1 class born after every finite death, as on a circle with a gap
    wider than the Rips threshold lets close."""
    return PersistenceDiagram([
        PersistencePair(0, 0.0, 0.5), PersistencePair(0, 0.0, math.inf),
        PersistencePair(1, 1.0, math.inf)])


class TestBarcode:
    def test_single_essential_bar(self):
        d = PersistenceDiagram([PersistencePair(0, 0.0, math.inf)])
        svg = render_barcode_svg(d)
        assert svg.count('class="bar') == 1
        assert 'marker-end="url(#arrow)"' in svg

    def test_unit_square_bar_count(self):
        svg = render_barcode_svg(unit_square_diagram())
        assert svg.count('class="bar dim0"') == 4
        assert svg.count('class="bar dim1"') == 1

    def test_empty_diagram_rejected(self):
        with pytest.raises(EmptyDiagram):
            render_barcode_svg(PersistenceDiagram([]))

    def test_deterministic(self):
        d = unit_square_diagram()
        assert render_barcode_svg(d) == render_barcode_svg(d)


class TestDiagramPlot:
    def test_single_point(self):
        d = PersistenceDiagram([PersistencePair(1, 1.0, 3.0)])
        svg = render_diagram_svg(d)
        assert svg.count('class="point') == 1
        assert 'class="diagonal"' in svg

    def test_all_essential_on_cap_line(self):
        d = PersistenceDiagram([PersistencePair(0, 0.0, math.inf),
                                PersistencePair(0, 0.5, math.inf)])
        svg = render_diagram_svg(d)
        assert svg.count("essential") == 2

    def test_every_pair_rendered_once(self):
        svg = render_diagram_svg(unit_square_diagram())
        assert svg.count('class="point') == len(unit_square_diagram())

    def test_cap_must_exceed_finite_deaths(self):
        d = unit_square_diagram()
        with pytest.raises(ValueError):
            render_diagram_svg(d, RenderOptions(cap=1.0))
        # above every finite death, but not above the essential birth 1.0
        with pytest.raises(ValueError):
            render_diagram_svg(late_essential_diagram(), RenderOptions(cap=0.75))

    def test_default_cap_scales_with_max_death(self):
        d = PersistenceDiagram([PersistencePair(1, 0.0, 10.0)])
        svg = render_diagram_svg(d)  # must not raise; cap = 10.5
        assert 'class="cap"' in svg

    def test_deterministic(self):
        d = unit_square_diagram()
        assert render_diagram_svg(d) == render_diagram_svg(d)

    def test_no_diagonal_when_disabled(self):
        d = unit_square_diagram()
        svg = render_diagram_svg(d, RenderOptions(draw_diagonal=False))
        assert 'class="diagonal"' not in svg


class TestCapBoundsEveryValue:
    def test_bars_run_left_to_right(self):
        svg = render_barcode_svg(late_essential_diagram())
        bars = re.findall(r'class="bar[^"]*" x1="([^"]+)" y1="[^"]+" x2="([^"]+)"', svg)
        assert len(bars) == 3
        for x1, x2 in bars:
            assert float(x2) >= float(x1)

    def test_essential_point_on_cap_line_above_diagonal(self):
        svg = render_diagram_svg(late_essential_diagram())
        cap_y = float(re.search(r'class="cap" x1="[^"]+" y1="([^"]+)"', svg).group(1))
        dx1, dy1, dx2, dy2 = map(float, re.search(
            r'class="diagonal" x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"',
            svg).groups())
        squares = re.findall(r'class="point dim1 essential" x="([^"]+)" y="([^"]+)"', svg)
        assert len(squares) == 1
        cx, cy = (float(v) + 4 for v in squares[0])  # 8x8 square centre
        assert cy == pytest.approx(cap_y)
        diagonal_y = dy1 + (dy2 - dy1) * (cx - dx1) / (dx2 - dx1)
        assert cy < diagonal_y  # svg y grows downwards

    @pytest.mark.parametrize("cap", [0.0, math.inf, math.nan])
    def test_cap_must_be_finite_and_positive(self, cap):
        d = PersistenceDiagram([PersistencePair(0, 0.0, math.inf)])
        with pytest.raises(ValueError):
            render_barcode_svg(d, RenderOptions(cap=cap))

    @pytest.mark.parametrize("cap", [0.0, -0.5])
    def test_cap_must_be_positive_above_negative_births(self, cap):
        # a diagram read from a CSV may be born below 0; a cap between its
        # births and 0 would divide by 0 or mirror the plot
        d = PersistenceDiagram([PersistencePair(0, -1.0, math.inf)])
        for render in (render_barcode_svg, render_diagram_svg):
            with pytest.raises(ValueError, match="cap must be finite, positive"):
                render(d, RenderOptions(cap=cap))

    @pytest.mark.parametrize("pair", [PersistencePair(1, -2.0, -1.0),
                                      PersistencePair(1, -2.0, math.inf)],
                             ids=["finite", "essential"])
    def test_default_cap_is_one_below_zero(self, pair):
        # every finite value below 0: the default cap is 1.0, not 1.05 times
        # a negative largest value
        d = PersistenceDiagram([pair])
        for render in (render_barcode_svg, render_diagram_svg):
            svg = render(d, RenderOptions())
            assert svg == render(d, RenderOptions(cap=1.0))


class TestBettiTable:
    def test_circle_row(self):
        text = write_betti_table((1, 1, 0))
        assert text.splitlines()[0].split() == ["beta_0", "beta_1", "beta_2"]
        assert text.splitlines()[1].split() == ["1", "1", "0"]

    def test_dna_style_row(self):
        assert write_betti_table((1, 3, 0)).splitlines()[1].split() == ["1", "3", "0"]

    def test_two_circles_row(self):
        assert write_betti_table((2, 2, 0)).splitlines()[1].split() == ["2", "2", "0"]
