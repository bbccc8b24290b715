"""Seeded generators for test corpora.

The "exact" generators produce structure matrices with entries in {0, +-1}
(signed pairings of coordinates), so A^2 = -I holds bitwise and block-algebra
identities come out with deviation exactly zero.  The "float" generators
produce generic well-conditioned instances where residuals at roundoff scale
are expected.

Scalar integer draws do not call numpy once per scalar.  They read the
generator's own buffered 32-bit stream, ``rng.bit_generator.ctypes.next_uint32``,
and run over it the algorithms numpy's ``Generator`` runs over the same
stream: Lemire's multiply-and-reject for ``integers(n)`` (``_Reader.below``)
and masked-rejection Fisher-Yates for ``permutation`` with bit 31 of one
32-bit value per sign (``_Reader.pairing``).  So every value, the
interleaving with ``standard_normal`` and the generator's final state are
numpy's.  A test pins this against ``Generator`` on PCG64 and MT19937 and
fails if numpy changes either algorithm.

numpy's own draws release the GIL while they hold ``rng.bit_generator.lock``
(re-entrant), so the stream is read only under that lock: ``stream_reader``
takes it and yields a ``_Reader`` bound to the stream once.  A corpus draw
(the CLI's ``_drawn_groups``) uses one reader for all its items, and
``_below`` and ``signed_pairing_matrix`` are one-draw wrappers over one.  A
pairing is drawn as ints, and ``_pairing_matrices`` scatters the pairings of
one dimension into a stack of matrices at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DescriptorError, first_errors, single
from .morphisms import RespectingOperator, _respect_residuals
from .spaces import (EuclideanQuadratic, NormedSpace, _gram_errors,
                     _whitening_factors, block_diag2, euclidean_space, lp_space)
from .structures import (BY_CONSTRUCTION, ComplexStructure, _gram_certificates,
                         _rejection, natural_i_operator,
                         natural_i_operator_matrix)

SPREAD = 0.3  # normal Z / sqrt(n) has norm ~2, so _near_identity is well conditioned
DRAW_BOUND = 2 ** 32  # _below draws an integer below n for 1 <= n <= DRAW_BOUND


# next_uint32(state) called with the GIL held: the call takes nanoseconds, and
# releasing and taking back the GIL around it would cost more than the call
_HELD_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)


class _Reader:
    """numpy's scalar integer draws over a bit generator's 32-bit stream,
    with next_uint32 bound to the generator's state once.  Use it only while
    the generator's lock is held (stream_reader)."""

    __slots__ = ("_uint32",)

    def __init__(self, bit_generator):
        c = bit_generator.ctypes
        next_uint32 = _HELD_UINT32(ctypes.cast(c.next_uint32, ctypes.c_void_p).value)
        self._uint32 = functools.partial(next_uint32, c.state_address)

    def below(self, n: int) -> int:
        """rng.integers(n) for 1 <= n <= 2**32, by the same draws: Lemire's
        method, and no draw for n = 1.  Beyond 2**32 the method's rejection
        loop would never end, so a larger n is a DescriptorError, raised
        before any draw."""
        if n == 1:
            return 0
        if not 1 < n <= DRAW_BOUND:
            raise DescriptorError(f"cannot draw an integer below {n}: "
                                  "the bound must lie in [1, 2**32]")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (DRAW_BOUND - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def pairing(self, dim: int) -> tuple:
        """A random signed pairing of dim coordinates as (perm, signs): the
        draws of rng.permutation(dim) (Fisher-Yates with masked rejection)
        and then of rng.integers(2) for each pair's sign (bit 31 of one
        32-bit value), as lists of ints.  See _pairing_matrices."""
        if dim % 2 != 0:
            raise DescriptorError("signed pairing needs even dimension")
        uint32 = self._uint32
        perm = list(range(dim))
        for i, mask in _shuffle_masks(dim):
            j = uint32() & mask
            while j > i:
                j = uint32() & mask
            perm[i], perm[j] = perm[j], perm[i]
        signs = []
        for _ in range(dim // 2):
            signs.append(uint32() >> 31)
        return perm, signs


@functools.lru_cache(maxsize=None)
def _shuffle_masks(dim: int) -> tuple:
    """(i, the mask numpy draws j <= i under) of each Fisher-Yates step of a
    permutation of dim, in order."""
    return tuple((i, (1 << i.bit_length()) - 1) for i in range(dim - 1, 0, -1))


@contextlib.contextmanager
def stream_reader(rng: np.random.Generator):
    """A _Reader of rng's stream, for draws made while rng's lock is held."""
    with rng.bit_generator.lock:
        yield _Reader(rng.bit_generator)


def _below(rng: np.random.Generator, n: int) -> int:
    """rng.integers(n) for 1 <= n <= 2**32 (_Reader.below)."""
    with stream_reader(rng) as stream:
        return stream.below(n)


def _pairing_matrices(dim: int, draws: list) -> np.ndarray:
    """The matrices of pairing draws (perm, signs) of one dim, stacked (k, dim,
    dim): A[q, p] = s and A[p, q] = -s for each pair (p, q) = (perm[2i],
    perm[2i + 1]), s = -1.0 for sign bit 1 and 1.0 for 0, and +0.0 elsewhere.
    One scatter puts each s at its flat offset, and A - A' puts s and -s in
    place exactly, so each matrix is bitwise the one signed_pairing_matrix
    builds alone."""
    at, values = [], []
    for k, (perm, signs) in enumerate(draws):
        for h, bit in enumerate(signs):
            at.append((k * dim + perm[2 * h + 1]) * dim + perm[2 * h])
            values.append(-1.0 if bit else 1.0)
    A = np.zeros((len(draws), dim, dim))
    A.reshape(-1)[at] = values
    return A - np.swapaxes(A, 1, 2)


def signed_pairing_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random matrix with A^2 = -I exactly: a signed pairing of coordinates,
    drawn as rng.permutation(dim) and then rng.integers(2) for each pair's
    sign would draw it (_Reader.pairing)."""
    with stream_reader(rng) as stream:
        draw = stream.pairing(dim)
    return _pairing_matrices(dim, [draw])[0]


def random_exact_structure(dim: int, rng: np.random.Generator) -> ComplexStructure:
    """A structure on the Euclidean space with an exact matrix.

    A signed pairing is orthogonal and skew bitwise, so it carries
    BY_CONSTRUCTION without a check.
    """
    return ComplexStructure(_euclidean(dim), signed_pairing_matrix(dim, rng),
                            BY_CONSTRUCTION)


@functools.lru_cache(maxsize=None)
def _euclidean(dim: int) -> NormedSpace:
    """l2^dim, one object shared by every structure drawn on it: a corpus
    decision then keys the space once, not once per operator."""
    return lp_space(dim, 2.0)


def respecting_part(T0: np.ndarray, A, B) -> np.ndarray:
    """(T0 - B T0 A) / 2, of T0 or of each matrix of a stack.

    For signed-pairing A and B the projection is exact in floating point, so
    the respect residual is bitwise zero.
    """
    return (T0 - B @ T0 @ A) / 2.0


def random_euclidean_space(dim: int, rng: np.random.Generator,
                           explicit_gram: bool = False) -> NormedSpace:
    return euclidean_space(dim, _random_grams(rng.standard_normal((dim, dim)))
                           if explicit_gram else None)


def _near_identity(Z: np.ndarray) -> np.ndarray:
    """I + SPREAD Z / sqrt(n) of normal draws Z (n, n), or of each matrix of a stack."""
    n = Z.shape[-1]
    return np.eye(n) + SPREAD * Z / np.sqrt(n)


def _random_grams(Z: np.ndarray) -> np.ndarray:
    """M'M for M = _near_identity(Z): the Gram of random_euclidean_space from
    its normal draws Z (n, n), or of each matrix of a stack."""
    M = _near_identity(Z)
    return np.swapaxes(M, -1, -2) @ M


def complexification_draws(half_dim: int, rng: np.random.Generator) -> tuple:
    """The normal draws of random_complexification_isomorphism, in its order:
    Y's Gram (half_dim, half_dim), then S0 (2 half_dim, 2 half_dim)."""
    return (rng.standard_normal((half_dim, half_dim)),
            rng.standard_normal((2 * half_dim, 2 * half_dim)))


def random_complexification_isomorphism(half_dim: int, rng: np.random.Generator,
                                        *, tol: Tolerances = DEFAULT_TOL):
    """A structure [X, A] together with an isomorphism onto a doubled space
    with its natural i-operator.

    The doubled space over a random Euclidean Y is pulled back through a
    random well-conditioned change of basis S0, so S0 itself is the
    isomorphism and A = S0^{-1} N S0.
    """
    Zy, Zs = complexification_draws(half_dim, rng)
    c = _complexification_isomorphisms(Zy[None], Zs[None], tol=tol)
    c = single(c, c.errors[0])
    ny = natural_i_operator(NormedSpace(half_dim, EuclideanQuadratic(c.y_gram[0])))
    s = ComplexStructure(NormedSpace(2 * half_dim, EuclideanQuadratic(c.gram[0])),
                         c.A[0], c.certificates[0])
    return s, RespectingOperator(s, ny, c.S0[0], c.respect[0])


class _Isomorphisms(NamedTuple):
    """random_complexification_isomorphism of each item of a stack: Y's
    Gram, X's Gram, S0, A, A's certificate, S0's respect residual, and the
    error of each item or None."""

    y_gram: np.ndarray
    gram: np.ndarray
    S0: np.ndarray
    A: np.ndarray
    certificates: list
    respect: list
    errors: list


def _complexification_isomorphisms(Zy: np.ndarray, Zs: np.ndarray, *,
                                   tol: Tolerances) -> _Isomorphisms:
    """The isomorphisms of complexification_draws stacked (k, m, m) and
    (k, 2m, 2m): every Gram checked as a descriptor (X's failing ones
    replaced by I, as _gram_errors gives them), every A certified and every
    S0 checked to respect (A, N)."""
    m = Zy.shape[-1]
    y_gram = _random_grams(Zy)
    N = natural_i_operator_matrix(m)
    S0 = _near_identity(Zs)
    H = np.swapaxes(S0, 1, 2) @ block_diag2(y_gram / 2.0) @ S0
    gram = (H + np.swapaxes(H, 1, 2)) / 2.0
    A = np.linalg.solve(S0, N @ S0)
    gram_errors, gram = _gram_errors(gram)
    certs = _gram_certificates(A, gram, *_whitening_factors(gram))
    respect, respect_errors = _respect_residuals(S0, A, N, tol)
    errors = first_errors(
        _gram_errors(y_gram)[0], gram_errors,
        [_rejection(c, tol) for c in certs], respect_errors)
    return _Isomorphisms(y_gram, gram, S0, A, certs, respect, errors)
