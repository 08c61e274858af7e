"""The columnar outputs of a diagram against per-pair referees.

write_diagram_csv, betti_at_scale, significant_features and both SVG
renderers read the diagram's numpy columns; tests/oracles.py keeps their
one-pair-at-a-time versions, which walk the pairs sorted by the
PersistencePair dataclass order. Bytes, tuples and filtered diagrams must
be equal, and so must the exception type when the input is rejected.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (per_pair_barcode_svg, per_pair_betti_at_scale,
                     per_pair_diagram_csv, per_pair_diagram_svg,
                     per_pair_significant_features)
from ripsph.core import PersistenceDiagram, PersistencePair
from ripsph.errors import RipsphError
from ripsph.persistence import (betti_at_scale, read_diagram_csv,
                                significant_features, write_diagram_csv)
from ripsph.render import RenderOptions, render_barcode_svg, render_diagram_svg


@st.composite
def pair_lists(draw):
    """Pairs of dimensions 0-3 on one magnitude, from tiny to large: births
    at 0, negative or on a small integer grid (ties), deaths finite or
    essential, and some pairs repeated."""
    unit = draw(st.sampled_from([1e-300, 1e-7, 1.0, 3.5e5, 1e300]))
    value = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 3.0))
    birth = st.one_of(st.just(0.0), value, st.floats(-3.0, 0.0))
    length = st.one_of(st.just(math.inf), value)
    pairs = draw(st.lists(st.builds(
        lambda k, b, l: PersistencePair(k, b * unit, b * unit + l * unit),
        st.integers(0, 3), birth, length), max_size=12))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    return draw(st.permutations(pairs))


def outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RipsphError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(pairs=pair_lists(), data=st.data())
def test_csv_and_filters_match_per_pair_oracles(pairs, data):
    d, ref = PersistenceDiagram(pairs), sorted(pairs)
    assert d.pairs == tuple(ref)
    text = write_diagram_csv(d)
    assert text == per_pair_diagram_csv(ref)
    assert read_diagram_csv(text) == d

    finite = [v for p in pairs for v in (p.birth, p.death)]
    scale = data.draw(st.one_of(st.sampled_from(finite + [math.inf, -math.inf, math.nan]),
                                st.floats(-1e301, 1e301)))
    max_dim = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    assert (outcome(betti_at_scale, d, scale, max_dim)
            == outcome(per_pair_betti_at_scale, ref, scale, max_dim))

    lengths = [p.persistence for p in pairs]
    threshold = data.draw(st.one_of(
        st.sampled_from(lengths + [0.0, math.inf, -1.0, math.nan]),
        st.floats(0.0, 1e301)))
    kept = outcome(significant_features, d, threshold)
    expected = outcome(per_pair_significant_features, ref, threshold)
    assert (kept.pairs if isinstance(kept, PersistenceDiagram) else kept) == (
        tuple(expected) if isinstance(expected, list) else expected)


@settings(max_examples=150, deadline=None)
@given(pairs=pair_lists(), data=st.data())
def test_svgs_match_per_pair_oracles(pairs, data):
    d, ref = PersistenceDiagram(pairs), sorted(pairs)
    top = max((p.birth if p.is_essential else p.death for p in pairs), default=0.0)
    cap = data.draw(st.one_of(
        st.none(), st.floats(1.0, 3.0).map(lambda f: f * top),
        st.sampled_from([top, 0.0, 1.0, -1.0, math.inf, math.nan])))
    o = data.draw(st.builds(
        RenderOptions, width=st.integers(50, 2000), height=st.integers(50, 2000),
        colors=st.lists(st.sampled_from(["red", "#00ff00", "blue", "k"]),
                        min_size=1, max_size=5).map(tuple),
        draw_diagonal=st.booleans(), cap=st.just(cap), margin=st.integers(0, 45)))
    for fast, slow in ((render_barcode_svg, per_pair_barcode_svg),
                       (render_diagram_svg, per_pair_diagram_svg)):
        assert outcome(fast, d, o) == outcome(slow, ref, o)
