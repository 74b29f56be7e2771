import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
