"""Mutated golden files against the canonical codec and the CLI.

Byte flips and truncations of small golden files must either parse to a
presentation that round-trips through ``serialize`` or raise
``FormatError``, as the whole-tree route in ``oracles`` does, and
``htk fmt`` on them must exit 0 or 2 and ``htk validate`` 0, 1 or 2,
without an exception.  The example counts keep the suite's time nearly
unchanged; ``derandomize`` makes every run try the same inputs.
"""

import gc
from functools import lru_cache

import oracles
import pytest
import test_golden
from hypothesis import given, settings
from hypothesis import strategies as st

from htk.cli import FormatError, main, parse, serialize

# plain and graded files of dimensions 0 to 2, a few hundred bytes each
SMALL = [
    "zoo:terminal:0",
    "zoo:cyclic:3",
    "zoo:init",
    "deloop:monoid",
    "theta:assoc:1",
    "terminal_graded:cyclic",
    "product_graded:cyclic",
]

#: bytes a flip writes: JSON punctuation or any byte at all
FLIPS = st.one_of(st.sampled_from(b'[]{},:"0123456789.-eE\\ '), st.integers(0, 255))


@lru_cache(maxsize=None)
def _golden(name):
    return test_golden.CASES[name]().encode("utf-8")


@st.composite
def mutated(draw):
    """A small golden file, truncated or with one to three bytes replaced."""
    data = bytearray(_golden(draw(st.sampled_from(SMALL))))
    if draw(st.booleans()):
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(FLIPS)
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated())
def test_parse_rejects_or_round_trips(data):
    text = data.decode("utf-8", "replace")
    try:
        P = parse(text)
    except FormatError:
        with pytest.raises(FormatError):
            oracles.parse(text)
    else:
        assert oracles.parse(text) == P
        # bytes as well: ``==`` cannot tell True from 1
        assert serialize(P) == oracles.serialize(oracles.parse(text))
        text = serialize(P)
        assert parse(text) == P
        assert serialize(parse(text)) == text
    assert gc.isenabled()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated())
def test_fmt_exits_zero_or_two(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_bytes(data)
    out = path.with_name("out.json")
    code = main(["fmt", str(path), "-o", str(out)])
    assert code in (0, 2)
    if code == 0:
        assert out.read_text(encoding="utf-8") == serialize(parse(data.decode("utf-8")))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated())
def test_validate_exits_zero_one_or_two(tmp_path_factory, data):
    # at bound 1, so that a flipped arity_bound cannot make the check huge
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_bytes(data)
    assert main(["validate", str(path), "--bound", "1"]) in (0, 1, 2)
