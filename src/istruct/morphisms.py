"""Operators that respect i-operators, canonical maps, and norm estimates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, SAMPLE_SEED, Tolerances
from .errors import CompositionError, RespectViolationError, single
from .spaces import NormedSpace, _checked_operator, block_diag2, norm_batch
from .structures import (ComplexStructure, conjugate_structure,
                         natural_i_operator, structure_equal)

RANK_RTOL = 1e-10  # smallest singular value > RANK_RTOL * largest
NORM_SAMPLES = 2000  # Gaussian directions of a sampled operator norm


@dataclass(eq=False)
class RespectingOperator:
    """[T, A, B]: a real matrix with T A = B T between two structures."""

    domain: ComplexStructure
    codomain: ComplexStructure
    matrix: np.ndarray
    respect_residual: float

    def __post_init__(self):
        # finite only: a corpus checks shapes, naming its first misshapen item
        self.matrix = _checked_operator(self.matrix, None, None)


def _fitted_matrix(op: RespectingOperator) -> np.ndarray:
    """op's matrix, checked to map its domain's space to its codomain's
    (DimensionMismatchError otherwise): for the single-item functions."""
    return _checked_operator(op.matrix, op.domain.space, op.codomain.space)


# ---------------------------------------------------------------------------
# Canonical injections and surjections on X (+) X
# ---------------------------------------------------------------------------

def injection_first(n: int) -> np.ndarray:
    """x -> (x, 0), as a 2n x n block matrix."""
    return np.eye(2 * n, n)


def injection_second(n: int) -> np.ndarray:
    """x -> (0, x)."""
    return np.eye(2 * n, n, k=-n)


def surjection_first(n: int) -> np.ndarray:
    """(x1, x2) -> x1, as an n x 2n block matrix."""
    return np.eye(n, 2 * n)


def surjection_second(n: int) -> np.ndarray:
    """(x1, x2) -> x2."""
    return np.eye(n, 2 * n, k=n)


def _split_matrix(A: np.ndarray) -> np.ndarray:
    """A (+) -A; of each matrix of a stack (..., n, n)."""
    out = block_diag2(A)
    out[..., A.shape[-2]:, A.shape[-1]:] *= -1.0
    return out


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def make_respecting(domain: ComplexStructure, codomain: ComplexStructure, T,
                    *, tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """Wrap T as [T, A, B]; rejected with the max-entry witness if T A != B T."""
    T = _checked_operator(T, domain.space, codomain.space)
    res, errors = _respect_residuals(T[None], domain.A, codomain.A, tol)
    return single(RespectingOperator(domain, codomain, T, res[0]), errors[0])


def _respect_residuals(Ts: np.ndarray, As, Bs, tol: Tolerances) -> tuple:
    """max |T A - B T| of each [T, A, B] of a stack Ts (k, m, n), with As and
    Bs stacks or one matrix for all, as a list; and for each, the
    RespectViolationError (with the max-entry witness) of a residual above
    tol.tol_alg or NaN, or None."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
        R = Ts @ As - Bs @ Ts
    res = np.max(np.abs(R), axis=(1, 2)).tolist()
    return res, [_respect_violation(R[j], r, tol) if not r <= tol.tol_alg else None
                 for j, r in enumerate(res)]


def _respect_violation(R: np.ndarray, res: float,
                       tol: Tolerances) -> RespectViolationError:
    i, j = np.unravel_index(np.argmax(np.abs(R)), R.shape)
    return RespectViolationError(
        f"T A - B T has entry {R[i, j]:.3e} at ({i}, {j}), above "
        f"{tol.tol_alg:.1e}", residual=res, witness=(int(i), int(j)))


def complexify_operator(T, baseX: NormedSpace,
                        baseY: NormedSpace) -> RespectingOperator:
    """T (+) T between the complexified spaces with their natural i-operators.

    Every entry of (T (+) T) N and of N (T (+) T) is one signed entry of T, so
    the respect residual is exactly 0.
    """
    T = _checked_operator(T, baseX, baseY)
    return RespectingOperator(natural_i_operator(baseX), natural_i_operator(baseY),
                              block_diag2(T), 0.0)


def conjugate_operator(op: RespectingOperator) -> RespectingOperator:
    """[T, A, B] -> [T, -A, -B]; the residual is preserved exactly."""
    return RespectingOperator(conjugate_structure(op.domain),
                              conjugate_structure(op.codomain),
                              op.matrix, op.respect_residual)


def identity_operator(s: ComplexStructure) -> RespectingOperator:
    return RespectingOperator(s, s, np.eye(s.space.dim), 0.0)


def compose(f: RespectingOperator, g: RespectingOperator, *,
            tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """f after g.  Requires g's codomain and f's domain to match exactly."""
    if not structure_equal(g.codomain, f.domain):
        raise CompositionError(
            "codomain of g and domain of f differ (structures must match "
            "exactly, including the A matrix)")
    return make_respecting(g.domain, f.codomain, f.matrix @ g.matrix, tol=tol)


# ---------------------------------------------------------------------------
# Isomorphism test
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class IsomorphismResult:
    is_isomorphism: bool
    inverse: Optional[RespectingOperator] = None
    condition_number: Optional[float] = None
    reason: Optional[str] = None


def is_isomorphism(op: RespectingOperator, *,
                   tol: Tolerances = DEFAULT_TOL) -> IsomorphismResult:
    """Square and numerically invertible => inverse operator, which respects
    the structures automatically (T A = B T and T invertible give
    T^{-1} B = A T^{-1})."""
    T = _fitted_matrix(op)
    if T.shape[0] != T.shape[1]:
        return IsomorphismResult(False, reason="non-square")
    singular, sv, Tinv, res, errors = _inverses(T[None], op.domain.A, op.codomain.A, tol)
    if singular[0]:
        return IsomorphismResult(False, reason="singular")
    inv_op = single(RespectingOperator(op.codomain, op.domain, Tinv[0], res[0]),
                    errors[0])
    return IsomorphismResult(True, inverse=inv_op,
                             condition_number=float(sv[0, 0] / sv[0, -1]))


def _inverses(Ts: np.ndarray, As, Bs, tol: Tolerances) -> tuple:
    """The test of is_isomorphism on each square [T, A, B] of a stack Ts
    (k, n, n): (singular mask, singular values, inverses, respect residuals
    of the inverses, their errors).  A singular T gets the inverse 0, whose
    residual is 0."""
    sv = np.linalg.svd(Ts, compute_uv=False)
    singular = sv[:, -1] <= RANK_RTOL * sv[:, 0]
    Tinv = np.zeros_like(Ts)
    Tinv[~singular] = np.linalg.inv(Ts[~singular])
    res, errors = _respect_residuals(Tinv, Bs, As, tol)
    return singular, sv, Tinv, res, errors


# ---------------------------------------------------------------------------
# Operator norm estimation
# ---------------------------------------------------------------------------

def _singular_values(T: np.ndarray, w_dom: Optional[tuple],
                     w_cod: Optional[tuple]) -> Optional[np.ndarray]:
    """Singular values, largest first, of T : dom -> cod or of each matrix of a
    stack (..., m, n) in Gram norms, given by the spaces' whitening factors
    (L', L'^-1) (spaces._whitening_factors, of one Gram or of a stack like T):
    L_cod' T L_dom'^-1 is T where both norms are l2, and each matrix's values
    are bitwise those of its own SVD.  Every Gram operator norm is read here.
    None unless both pairs are given."""
    if w_dom is None or w_cod is None:
        return None
    return np.linalg.svd(w_cod[0] @ T @ w_dom[1], compute_uv=False)


def matrix_norm_between(T: np.ndarray, dom: NormedSpace,
                        cod: NormedSpace) -> tuple[float, bool]:
    """Norm of T : dom -> cod; (value, exact).

    Exact via singular values when both norms are Euclidean-like; otherwise a
    sampled lower bound over seeded Gaussian directions plus the coordinate
    directions (which attain the sup for the common polyhedral cases).
    """
    T = _checked_operator(T, dom, cod)
    sv = _singular_values(T, dom._whitening, cod._whitening)
    if sv is not None:
        return float(sv[0]), True

    rng = np.random.default_rng(SAMPLE_SEED)
    X = rng.standard_normal((NORM_SAMPLES, dom.dim))
    X = np.vstack([X, np.eye(dom.dim), -np.eye(dom.dim)])
    dn = norm_batch(dom, X)
    keep = dn > 0
    ratios = norm_batch(cod, X[keep] @ T.T) / dn[keep]
    return float(np.max(ratios)), False
