"""dump_json, the one JSON writer: the same bytes as the json.dumps renderer
it replaced on every tree that renderer accepts, and a closed type table."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mufilt import HNResult, PeriodMonomial, Polygon, Signature
from mufilt.group_models import FiniteOModuleDesc, SplitSubgroupDesc
from mufilt.serialize import dump_json

F = Fraction
CAP = (10 ** sys.get_int_max_str_digits()).bit_length() - 1

# integers up to the cap, and the largest ones that pass it (built by map,
# so that the strategy's repr does not print them)
at_cap = st.sampled_from([1, -1]).map(lambda sign: sign * (2**CAP - 1))
ints = st.integers(-(10**30), 10**30) | at_cap | st.sampled_from([2**64, -1, 0])
naturals = st.integers(0, 10**6)
fractions = st.builds(F, ints, st.integers(1, 10**30) | at_cap.map(abs))
# quotes, backslashes, control characters and non-ASCII, among any others
texts = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f~aZ é€ 😀') | st.characters())


@st.composite
def polygons(draw):
    """A polygon from drawn widths and slopes, sorted to fit its convexity;
    small ones, as their products are the points."""
    small = st.fractions(-1000, 1000, max_denominator=10**6)
    convexity = draw(st.sampled_from(["convex", "concave"]))
    slopes = sorted(draw(st.lists(small, min_size=1, max_size=4)),
                    reverse=convexity == "concave")
    widths = draw(st.lists(small.filter(lambda w: w > 0),
                           min_size=len(slopes), max_size=len(slopes)))
    points = [(F(0), F(0))]
    for w, s in zip(widths, slopes):
        x, y = points[-1]
        points.append((x + w, y + w * s))
    return Polygon(tuple(points), convexity)


degrees = st.lists(fractions.map(abs), max_size=3).map(tuple)
descs = st.builds(FiniteOModuleDesc, naturals, degrees, naturals)
split_descs = st.builds(
    SplitSubgroupDesc, naturals, degrees, naturals,
    st.lists(naturals, max_size=3).map(tuple),
)
library_values = st.one_of(
    fractions,
    polygons(),
    descs,
    split_descs,
    st.builds(PeriodMonomial, ints, st.lists(ints, max_size=4).map(tuple), ints),
    st.sampled_from([
        Signature(f=1, p=2, h=1, q=(0,)),
        Signature(f=3, p=2**61 - 1, h=4, q=(0, 4, 2)),
    ]),
    st.builds(HNResult, polygons(), st.lists(descs | split_descs, max_size=3).map(tuple),
              st.lists(fractions, max_size=3).map(tuple)),
)
leaves = st.one_of(ints, texts, st.booleans(), st.none(), library_values)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trees, st.booleans())
def test_writer_matches_reference(tree, human):
    assert dump_json(tree, human) == oracles.dump_json_reference(tree, human)


@pytest.mark.parametrize(
    "data",
    [
        [], (), {}, "", [[]], {"": {}}, 0, -5, True, None, "\"\\\x01é",
        {"b": [1, F(-1, 3)], "a": (), "c": {"d": None}},
        [F(7, 2**CAP - 1), 2**CAP - 1, -(2**CAP - 1)],
    ],
)
def test_edge_trees_match_reference(data):
    for human in (False, True):
        assert dump_json(data, human) == oracles.dump_json_reference(data, human)


@pytest.mark.parametrize(
    "data, name",
    [
        ({"x": 0.5}, "float"),
        ([1, 0.5], "float"),
        ({1: 2}, "int key"),
        ({"a": 1, 2: 3}, "int key"),
        ({None: 0}, "NoneType key"),
        ({"s": {1, 2}}, "set"),
        (b"bytes", "bytes"),
        ([object()], "object"),
    ],
)
def test_type_table_is_closed(data, name):
    """Floats, non-str keys and any type outside the table raise TypeError
    naming the type, where json.dumps would print a float, convert a key
    or fail on comparing mixed keys."""
    with pytest.raises(TypeError, match=f"^cannot render {name}$"):
        dump_json(data)

