"""Machine mode's writer: the bytes of ``json.dumps(value, indent=2, allow_nan=False)``."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzygame.cli import _write_json


def written(value):
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


def reference(value):
    return json.dumps(value, indent=2, allow_nan=False)


# Lone surrogates come from the integer strategy: hypothesis's characters() leaves them out.
CHARACTERS = (st.characters(exclude_categories=()) | st.integers(0xD800, 0xDFFF).map(chr)
              | st.sampled_from('"\\/\x00\x08\x1f\x7fé \U0001f600'))
STRINGS = st.lists(CHARACTERS, max_size=12).map("".join)
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1.5e300, -1.5e300,
               1.7976931348623157e308, 0.1, 1 / 3)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
           | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
           | STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(VALUES)
@example({"label": "Aé\ud800\"\\\n", "nested": [[], {}, [[{}]], ()], "n": 2**65})
@example([-0.0, 5e-324, 1e16, 1e22, 1.5e300, True, False, None, 0, -1])
def test_writes_what_json_dumps_writes(value):
    assert written(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), "", "é", "\ud83d", 2**64, -(2**64) - 1, *EDGE_FLOATS,
    {"a": {}, "b": [], "c": [[[]]], "d": {"e": {"f": ()}}},
], ids=repr)
def test_edge_values(value):
    assert written(value) == reference(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1, {"x": v}]], ids=["bare", "nested"])
def test_refuses_non_finite_floats(bad, wrap):
    with pytest.raises(ValueError):
        reference(wrap(bad))
    with pytest.raises(ValueError):
        written(wrap(bad))


@pytest.mark.parametrize("value", [{1, 2}, [set()], {"x": object()}], ids=["set", "nested-set",
                                                                           "object"])
def test_refuses_other_types(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        written(value)
