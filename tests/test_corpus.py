"""The corpus draws read the generator's 32-bit stream themselves; numpy's
Generator must make the same draws from it, value for value and state for
state.  If numpy changes its integer or permutation algorithm, this fails
instead of the reports changing unnoticed.  The complex corpora check no
respect when they draw, which rests on the respecting part of signed
pairings respecting them exactly; that is tested here too."""

import json

import numpy as np
import pytest

from istruct.corpus import (_below, _pairing_matrices, respecting_part,
                            signed_pairing_matrix, stream_reader)
from istruct.errors import DescriptorError

from helpers import numpy_signed_pairing_matrix

# about half the draws at n = 2**31 + 1 take Lemire's rejection branch
_BOUNDS = (1, 2, 3, 7, 2 ** 31 + 1, 2 ** 32)


def _state(rng) -> dict:
    """rng's bit generator state, with its arrays as lists so that == compares
    them; on PCG64 it holds the buffered half of a 64-bit draw (has_uint32,
    uinteger)."""
    return json.loads(json.dumps(rng.bit_generator.state, default=np.ndarray.tolist))


def _numpy_pairing(dim: int, rng) -> tuple:
    """_Reader.pairing drawn by numpy's own calls: the permutation, then one
    rng.integers(2) per pair's sign."""
    return rng.permutation(dim).tolist(), [int(rng.integers(2)) for _ in range(dim // 2)]


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
        # one reader across a mixed sequence, as a corpus draws: the integers
        # and pairings read from the stream, the normals from the generator
        ops = np.random.default_rng(seed)
        with stream_reader(ours) as stream:
            for _ in range(40):
                op = ops.integers(3)
                if op == 0:
                    n = _BOUNDS[ops.integers(len(_BOUNDS))]
                    assert stream.below(n) == int(theirs.integers(n)), (seed, n)
                elif op == 1:
                    dim = 2 * int(ops.integers(1, 5))
                    assert stream.pairing(dim) == _numpy_pairing(dim, theirs), (seed, dim)
                else:
                    assert ours.standard_normal() == theirs.standard_normal()
            # an out-of-range bound or an odd pairing draws nothing
            for n in (0, 2 ** 32 + 1, 2 ** 40):
                with pytest.raises(DescriptorError, match=str(n)):
                    stream.below(n)
            with pytest.raises(DescriptorError):
                stream.pairing(3)
            assert _state(ours) == _state(theirs), seed
        # a shape group's scatter is the stack of the matrices drawn one by one
        for dim in (2, 4, 6, 8):
            for k in (1, 2, 17):
                with stream_reader(ours) as stream:
                    draws = [stream.pairing(dim) for _ in range(k)]
                stacked = np.stack([signed_pairing_matrix(dim, theirs) for _ in range(k)])
                scattered = _pairing_matrices(dim, draws)
                assert scattered.dtype == stacked.dtype and scattered.shape == stacked.shape
                assert scattered.tobytes() == stacked.tobytes(), (seed, dim, k)
        assert _state(ours) == _state(theirs), seed
    if bit_generator is np.random.PCG64:
        assert {"has_uint32", "uinteger"} <= set(_state(ours))


@pytest.mark.parametrize("n", [0, 2 ** 32 + 1, 2 ** 40])
def test_a_draw_below_a_bound_outside_1_to_2_32_is_a_typed_error(n):
    rng = np.random.default_rng(0)
    state = _state(rng)
    with pytest.raises(DescriptorError, match=str(n)):
        _below(rng, n)
    assert _state(rng) == state


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300, "mixed"])
def test_respecting_part_of_signed_pairings_respects_exactly(scale):
    rng = np.random.default_rng(11)
    for n in (2, 4, 6, 8):
        for m in (2, 4, 6, 8):
            k = 40
            As = np.stack([signed_pairing_matrix(n, rng) for _ in range(k)])
            Bs = np.stack([signed_pairing_matrix(m, rng) for _ in range(k)])
            T0s = rng.standard_normal((k, m, n))
            # "mixed": every entry at its own scale in [1e-300, 1e300]
            T0s *= 10.0 ** rng.integers(-300, 301, T0s.shape) if scale == "mixed" else scale
            Ts = respecting_part(T0s, As, Bs)
            assert np.all(np.isfinite(Ts)) and np.all(Ts != 0.0)
            assert np.array_equal(Ts @ As - Bs @ Ts, np.zeros((k, m, n))), (n, m)
