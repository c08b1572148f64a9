"""serialize.json_text against the standard library's encoder, which stays
the reference here: the same text on any JSON tree, and a refusal where the
encoder would write a non-standard token or fall back to a base type."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditgraph.serialize import json_text

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**100), 0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), children, max_size=4),
    ),
    max_leaves=30,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@settings(database=None, derandomize=True, deadline=None, max_examples=500)
@given(_trees)
def test_json_text_matches_stdlib_encoder(obj):
    assert json_text(obj) == reference(obj)


def test_json_text_nesting_and_empty_containers():
    obj = {"a": [[], {}, ()], 7: {"b": [1, [2, [3, {"é\n": None}]]]}, "": (True, False)}
    assert json_text(obj) == reference(obj)
    for leaf in ([], {}, (), "x", -3, 0.5, None, True):
        assert json_text(leaf) == reference(leaf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="float"):
        json_text(bad)
    with pytest.raises(ValueError, match="float"):
        json_text({"deep": [1, {"x": bad}]})


@pytest.mark.parametrize(
    "bad",
    [np.float64(0.5), np.int64(3), np.bool_(True), Fraction(1, 3), {1, 2}, frozenset()],
    ids=["float64", "int64", "bool_", "Fraction", "set", "frozenset"],
)
def test_json_text_refuses_other_value_types(bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        json_text(bad)
    with pytest.raises(TypeError, match=type(bad).__name__):
        json_text({"deep": [bad]})


@pytest.mark.parametrize("key", [(1, 2), 0.5, None, True, np.int64(1)],
                         ids=["tuple", "float", "None", "bool", "int64"])
def test_json_text_refuses_keys_other_than_str_and_int(key):
    with pytest.raises(TypeError, match="keys must be str or int"):
        json_text({key: 1})
