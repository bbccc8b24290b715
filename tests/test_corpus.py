"""The corpus draws read the generator's 32-bit stream themselves; numpy's
Generator must make the same draws from it, value for value and state for
state.  If numpy changes its integer or permutation algorithm, this fails
instead of the reports changing unnoticed."""

import json

import numpy as np
import pytest

from istruct.corpus import _below, signed_pairing_matrix
from istruct.errors import DescriptorError

from helpers import numpy_signed_pairing_matrix

# about half the draws at n = 2**31 + 1 take Lemire's rejection branch
_BOUNDS = (1, 2, 3, 7, 2 ** 31 + 1, 2 ** 32)


def _state(rng) -> dict:
    """rng's bit generator state, with its arrays as lists so that == compares
    them; on PCG64 it holds the buffered half of a 64-bit draw (has_uint32,
    uinteger)."""
    return json.loads(json.dumps(rng.bit_generator.state, default=np.ndarray.tolist))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_stream_draws_are_the_generators_draws(bit_generator):
    for seed in range(50):
        ours = np.random.Generator(bit_generator(seed))
        theirs = np.random.Generator(bit_generator(seed))
        for n in _BOUNDS:
            for _ in range(8):
                assert _below(ours, n) == int(theirs.integers(n)), (seed, n)
                assert ours.standard_normal() == theirs.standard_normal()
            assert _state(ours) == _state(theirs), (seed, n)
        for dim in range(2, 9):
            if dim % 2:
                with pytest.raises(DescriptorError):
                    signed_pairing_matrix(dim, ours)
                with pytest.raises(DescriptorError):
                    numpy_signed_pairing_matrix(dim, theirs)
            else:
                np.testing.assert_array_equal(signed_pairing_matrix(dim, ours),
                                              numpy_signed_pairing_matrix(dim, theirs))
            assert ours.standard_normal() == theirs.standard_normal()
            assert _state(ours) == _state(theirs), (seed, dim)
    if bit_generator is np.random.PCG64:
        assert {"has_uint32", "uinteger"} <= set(_state(ours))


@pytest.mark.parametrize("n", [0, 2 ** 32 + 1, 2 ** 40])
def test_a_draw_below_a_bound_outside_1_to_2_32_is_a_typed_error(n):
    rng = np.random.default_rng(0)
    state = _state(rng)
    with pytest.raises(DescriptorError, match=str(n)):
        _below(rng, n)
    assert _state(rng) == state
