"""Tests for ``errors.named``, the one rule that puts where a fault arose in
front of its message."""

import pytest

from webly.errors import CheckpointError, ParseError, ValidationError, named


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

    def test_error_outside_catch_passes_through_untouched(self):
        error = TypeError("not caught")
        with pytest.raises(TypeError) as info:
            with named("data.synth."):
                raise error
        assert info.value is error
        assert str(error) == "not caught" and error.__context__ is None
