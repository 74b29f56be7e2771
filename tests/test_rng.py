import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbftest import _rng
from pbftest._rng import MASK64, substream


def _keyed(seed, index):
    """The reference construction: Philox keyed directly with seed xor index."""
    return np.random.Generator(np.random.Philox(key=(seed ^ index) & MASK64))


def _assert_same_state(got, want):
    got, want = got.bit_generator.state, want.bit_generator.state
    assert np.array_equal(got["state"]["counter"], want["state"]["counter"])
    assert np.array_equal(got["state"]["key"], want["state"]["key"])
    assert np.array_equal(got["buffer"], want["buffer"])
    assert got["buffer_pos"] == want["buffer_pos"]
    assert got["has_uint32"] == want["has_uint32"]
    assert got["uinteger"] == want["uinteger"]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**130)),
    st.integers(-(2**66), 2**66),
)
def test_substream_matches_philox_key_property(seed, index):
    got, want = substream(seed, index), _keyed(seed, index)
    _assert_same_state(got, want)
    assert np.array_equal(got.permutation(1000), want.permutation(1000))


@pytest.mark.parametrize("key", [0, 2**63, MASK64])
def test_substream_edge_keys(key):
    got, want = substream(key), _keyed(key, 0)
    _assert_same_state(got, want)
    assert int(got.bit_generator.state["state"]["key"][0]) == key
    assert np.array_equal(got.permutation(1000), want.permutation(1000))
    # after a 32-bit draw the buffered half-word must agree too
    assert got.integers(0, 2**32, dtype=np.uint32) == want.integers(0, 2**32, dtype=np.uint32)
    _assert_same_state(got, want)


def test_pickled_substream_continues_the_stream():
    rng = substream(-12345, 7)
    rng.standard_normal(3)
    rng.integers(0, 10, dtype=np.uint32)  # leaves a buffered 32-bit half
    clone = pickle.loads(pickle.dumps(rng))
    _assert_same_state(clone, rng)
    assert np.array_equal(clone.random(50), rng.random(50))
    assert np.array_equal(clone.permutation(100), rng.permutation(100))


def _draws(rng):
    """A mix of draws that each advance the stream differently."""
    return [
        lambda: rng.permutation(37),
        lambda: rng.random(5),
        lambda: rng.integers(0, 10, dtype=np.uint32),  # leaves a buffered 32-bit half
        lambda: rng.standard_normal(3),
        lambda: rng.integers(0, 2**40, size=4),
    ]


@pytest.mark.parametrize("seed, index", [(0, 0), (-12345, 7), (2**64 + 3, 2**63)])
def test_live_substreams_are_independent(seed, index):
    # two live generators of one (seed, index), drawn interleaved, must give
    # what each gives alone: they share no state, the zero counter included
    a, b = substream(seed, index), substream(seed, index)
    assert a.bit_generator is not b.bit_generator
    interleaved = [(f(), g()) for f, g in zip(_draws(a), _draws(b))]
    alone = [f() for f in _draws(substream(seed, index))]
    for (x, y), want in zip(interleaved, alone):
        assert np.array_equal(x, want) and np.array_equal(y, want)
    _assert_same_state(a, b)
    assert not np.any(_rng._ZERO_COUNTER)
    assert not _rng._ZERO_COUNTER.flags.writeable
    assert not np.any(substream(seed, index).bit_generator.state["state"]["counter"])
