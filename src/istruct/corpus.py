"""Seeded generators for test corpora.

The "exact" generators produce structure matrices with entries in {0, +-1}
(signed pairings of coordinates), so A^2 = -I holds bitwise and block-algebra
identities come out with deviation exactly zero.  The "float" generators
produce generic well-conditioned instances where residuals at roundoff scale
are expected.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DescriptorError, first_errors
from .morphisms import RespectingOperator, _respect_residuals, make_respecting
from .spaces import (EuclideanQuadratic, NormedSpace, _doubled_gram,
                     _gram_defects, lp_space)
from .structures import (BY_CONSTRUCTION, ComplexStructure, _gram_certificates,
                         _rejection, natural_i_operator,
                         natural_i_operator_matrix)

SPREAD = 0.3  # S0 = I + SPREAD Z / sqrt(dim) for normal Z: well conditioned


def signed_pairing_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random matrix with A^2 = -I exactly: a signed pairing of coordinates."""
    if dim % 2 != 0:
        raise ValueError("signed pairing needs even dimension")
    perm = rng.permutation(dim)
    A = np.zeros((dim, dim))
    for i in range(dim // 2):
        p, q = int(perm[2 * i]), int(perm[2 * i + 1])
        s = 1.0 if rng.integers(2) == 0 else -1.0
        A[q, p] = s
        A[p, q] = -s
    return A


def pairing_conjugation_matrix(A: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random T with T^2 = I and T A = -A T, exact, for a signed-pairing A."""
    dim = A.shape[0]
    T = np.zeros((dim, dim))
    done = np.zeros(dim, dtype=bool)
    for p in range(dim):
        if done[p]:
            continue
        q = int(np.argmax(np.abs(A[:, p])))
        done[p] = done[q] = True
        kind = int(rng.integers(4))
        if kind == 0:      # reflect: e_p -> e_p, e_q -> -e_q
            T[p, p], T[q, q] = 1.0, -1.0
        elif kind == 1:    # reflect the other way
            T[p, p], T[q, q] = -1.0, 1.0
        elif kind == 2:    # swap
            T[q, p], T[p, q] = 1.0, 1.0
        else:              # negated swap
            T[q, p], T[p, q] = -1.0, -1.0
    return T


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


def random_respecting_matrix(A: np.ndarray, B: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """A generic T with T A = B T, by averaging away the defect."""
    return respecting_part(rng.standard_normal((B.shape[0], A.shape[0])), A, B)


def respecting_part(T0: np.ndarray, A, B) -> np.ndarray:
    """(T0 - B T0 A) / 2, of T0 or of each matrix of a stack.

    For signed-pairing A and B the projection is exact in floating point, so
    the respect residual is bitwise zero.
    """
    return (T0 - B @ T0 @ A) / 2.0


def random_respecting_operator(dom: ComplexStructure, cod: ComplexStructure,
                               rng: np.random.Generator, *,
                               tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    T = random_respecting_matrix(dom.A, cod.A, rng)
    return make_respecting(dom, cod, T, tol=tol)


def random_euclidean_space(dim: int, rng: np.random.Generator,
                           explicit_gram: bool = False) -> NormedSpace:
    if not explicit_gram:
        return lp_space(dim, 2.0)
    return NormedSpace(dim, EuclideanQuadratic(_random_grams(
        rng.standard_normal((dim, dim)))))


def _random_grams(Z: np.ndarray) -> np.ndarray:
    """M'M for M = I + 0.3 Z / sqrt(n): the Gram of random_euclidean_space from
    its normal draws Z (n, n), or of each matrix of a stack."""
    n = Z.shape[-1]
    M = np.eye(n) + 0.3 * Z / np.sqrt(n)
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
    if c.errors[0] is not None:
        raise c.errors[0]
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
    (k, 2m, 2m): every Gram checked as a descriptor, every A certified and
    every S0 checked to respect (A, N)."""
    m = Zy.shape[-1]
    dim = 2 * m
    y_gram = _random_grams(Zy)
    N = natural_i_operator_matrix(m)
    S0 = np.eye(dim) + SPREAD * Zs / np.sqrt(dim)
    H = np.swapaxes(S0, 1, 2) @ _doubled_gram(y_gram) @ S0
    gram = (H + np.swapaxes(H, 1, 2)) / 2.0
    A = np.linalg.solve(S0, N @ S0)
    certs = _gram_certificates(A, gram)
    respect, respect_errors = _respect_residuals(S0, A, N, tol)
    errors = first_errors(
        *([None if d is None else DescriptorError(d) for d in _gram_defects(g)]
          for g in (y_gram, gram)),
        [_rejection(c, tol) for c in certs], respect_errors)
    return _Isomorphisms(y_gram, gram, S0, A, certs, respect, errors)
