"""Seeded generators for test corpora.

The "exact" generators produce structure matrices with entries in {0, +-1}
(signed pairings of coordinates), so A^2 = -I holds bitwise and block-algebra
identities come out with deviation exactly zero.  The "float" generators
produce generic well-conditioned instances where residuals at roundoff scale
are expected.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .morphisms import RespectingOperator, make_respecting
from .spaces import (EuclideanQuadratic, NormedSpace, euclidean_gram,
                     lp_space)
from .structures import BY_CONSTRUCTION, ComplexStructure, validate_i_operator


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
    return ComplexStructure(lp_space(dim, 2.0), signed_pairing_matrix(dim, rng),
                            BY_CONSTRUCTION)


def random_respecting_matrix(A: np.ndarray, B: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """A generic T with T A = B T, by averaging away the defect.

    For signed-pairing A and B the projection (T0 - B T0 A) / 2 is exact in
    floating point, so the respect residual is bitwise zero.
    """
    T0 = rng.standard_normal((B.shape[0], A.shape[0]))
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
    M = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    return NormedSpace(dim, EuclideanQuadratic(M.T @ M))


def random_complexification_isomorphism(half_dim: int, rng: np.random.Generator,
                                        *, tol: Tolerances = DEFAULT_TOL,
                                        spread: float = 0.3):
    """A structure [X, A] together with an isomorphism onto a doubled space
    with its natural i-operator.

    The doubled space over a random Euclidean Y is pulled back through a
    random well-conditioned change of basis S0, so S0 itself is the
    isomorphism and A = S0^{-1} N S0.
    """
    from .structures import natural_i_operator

    y = random_euclidean_space(half_dim, rng, explicit_gram=True)
    ny = natural_i_operator(y)
    dim = 2 * half_dim
    S0 = np.eye(dim) + spread * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    G_target = euclidean_gram(ny.space)
    H = S0.T @ G_target @ S0
    x_space = NormedSpace(dim, EuclideanQuadratic((H + H.T) / 2.0))
    A = np.linalg.solve(S0, ny.A @ S0)
    s = validate_i_operator(x_space, A, tol=tol)
    iso = make_respecting(s, ny, S0, tol=tol)
    return s, iso
