"""Tests for ``errors.named``, the one rule that puts where a fault arose in
front of its message, and ``errors.shown``, the one rule that quotes a value in it."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from webly.errors import (SHOWN, CheckpointError, ParseError, ValidationError, clipped, named,
                          shown)


class TestNamed:
    def test_error_keeps_its_class(self):
        with pytest.raises(ParseError) as info:
            with named("config.json: ", catch=ValueError):
                raise ParseError("line 2: bad")
        assert type(info.value) is ParseError
        assert str(info.value) == "config.json: line 2: bad"

    def test_kind_is_applied(self):
        with pytest.raises(ParseError) as info:
            with named("web.json: ", ParseError, (ValidationError, OverflowError)):
                raise OverflowError("too large")
        assert type(info.value) is ParseError
        assert str(info.value) == "web.json: too large"

    def test_no_chain(self):
        with pytest.raises(CheckpointError) as info:
            with named("m.wslckpt: malformed header: ", CheckpointError, (ValueError, KeyError)):
                {}["config"]
        assert str(info.value) == "m.wslckpt: malformed header: 'config'"
        assert info.value.__cause__ is None
        assert info.value.__suppress_context__

    def test_foreign_text_is_clipped_and_toolkit_text_kept_whole(self):
        long = "x" * (3 * SHOWN)
        with pytest.raises(CheckpointError) as info:
            with named("m.wslckpt: ", CheckpointError, TypeError):
                raise TypeError(long)
        assert str(info.value) == "m.wslckpt: " + clipped(long)
        with pytest.raises(ValidationError) as info:
            with named("model."):
                raise ValidationError(long)
        assert str(info.value) == "model." + long

    def test_error_outside_catch_passes_through_untouched(self):
        error = TypeError("not caught")
        with pytest.raises(TypeError) as info:
            with named("data.synth."):
                raise error
        assert info.value is error
        assert str(error) == "not caught" and error.__context__ is None


def depth(value) -> int:
    """Levels of non-empty lists, tuples and dicts in ``value``, as ``shown`` counts them."""
    if type(value) in (list, tuple, dict) and value:
        return 1 + max(map(depth, value.values() if type(value) is dict else value))
    return 0


def nested(value, levels: int):
    for _ in range(levels):
        value = [value]
    return value


LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
          | st.integers(0, 3 * SHOWN).map(lambda n: "'\\" * n)  # text whose repr is longer
          | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.floats().map(np.float64)
          | arrays(np.float64, array_shapes(max_dims=2, max_side=3)))
JSON_LIKE = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                         | st.tuples(inner) | st.dictionaries(st.text(), inner, max_size=3))
VALUES = (JSON_LIKE | st.builds(ValueError, JSON_LIKE) | st.builds(ParseError, st.text())
          | st.builds(nested, JSON_LIKE, st.integers(0, 40)))


class TestShown:
    @given(VALUES)
    def test_repr_within_the_bounds_is_kept_and_every_result_is_bounded(self, value):
        text = shown(value)  # never raises
        assert len(text) <= SHOWN
        if depth(value) <= 10 and len(repr(value)) <= SHOWN:
            assert text == repr(value)

    @given(st.text(min_size=SHOWN + 1))
    def test_long_text_is_cut_to_the_bound(self, text):
        assert shown(text) == repr(text)[:SHOWN - 3] + "..."
        assert clipped(text) == text[:SHOWN - 3] + "..." and clipped(text[:SHOWN]) == text[:SHOWN]

    def test_ten_levels_are_shown_and_the_eleventh_is_cut(self):
        assert shown(nested(0, 10)) == repr(nested(0, 10))
        assert shown(nested(0, 900)) == "[" * 11 + "..." + "]" * 11
        assert shown({"a": nested(0, 900)}) == "{'a': " + "[" * 10 + "..." + "]" * 10 + "}"
        assert shown(((((((((((((1,),),),),),),),),),),),)) == "(" * 11 + "...,)" + ",)" * 10

    def test_many_items_are_cut_to_the_bound(self):
        assert shown([0] * 100_000) == repr([0] * 400)[:SHOWN - 3] + "..."
        assert shown({i: i for i in range(100_000)}).startswith("{0: 0, 1: 1, ")

    def test_a_value_whose_repr_fails_is_named_by_its_type(self):
        class Broken:
            def __repr__(self):
                raise RuntimeError("no repr")

        assert shown(Broken()) == "<Broken>"
        assert shown([Broken(), 10 ** 5000]) == "[<Broken>, <int>]"  # past int's digits
        assert len(shown(ValueError(nested(0, 900)))) == SHOWN  # its repr is cut whole
