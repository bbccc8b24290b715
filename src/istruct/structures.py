"""Pairs [X, A]: i-operator validation, conjugation, and existence decision.

An i-operator A on a real space X satisfies A^2 = -I and makes every rotation
alpha*I + beta*A with alpha^2 + beta^2 = 1 an isometry.  A construction that
proves its result is an i-operator (the natural operator N on a
complexification, signed pairings on l2, A (+) -A on a square) attaches the
certificate of that proof, BY_CONSTRUCTION or the one it inherits, and runs no
check.  `certify` measures candidates: exactly (algebraically) for
Euclidean-like norms, structurally for N on a complexification, and by
sampling otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatchError, StructureValidationError
from .spaces import (ComplexificationOfBase, Lp, NormedSpace, WeightedLp,
                     _sinusoid_pieces, direct_sum, euclidean_gram, lp_space,
                     norm, norm_batch, space_equal)

DEFAULT_SAMPLE_VECTORS = 512
DEFAULT_SAMPLE_ANGLES = 64


@dataclass(frozen=True, eq=False)
class Certificate:
    """Validation evidence for a candidate i-operator; frozen, so one instance
    can be shared by every structure it certifies."""

    algebraic_residual: float
    isometry_residual: float
    samples_used: int
    exact: bool
    # worst witness for the isometry residual: (x, alpha, beta); None when the
    # check was algebraic
    witness: Optional[tuple] = None


# the certificate of a construction whose result is an i-operator by proof,
# with A^2 = -I bitwise and every rotation an exact isometry
BY_CONSTRUCTION = Certificate(0.0, 0.0, 0, True, None)


@dataclass(eq=False)
class ComplexStructure:
    space: NormedSpace
    A: np.ndarray
    certificate: Certificate


def structure_equal(a: ComplexStructure, b: ComplexStructure) -> bool:
    return space_equal(a.space, b.space) and np.array_equal(a.A, b.A)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def certify(space: NormedSpace, A, *, seed: int = 0,
            samples: int = DEFAULT_SAMPLE_VECTORS,
            angles: int = DEFAULT_SAMPLE_ANGLES) -> Certificate:
    """Compute residuals for a candidate i-operator without rejecting it."""
    A = np.asarray(A, dtype=float)
    n = space.dim
    if A.shape != (n, n):
        raise DimensionMismatchError(f"A must be {n} x {n}, got {A.shape}")
    gram = euclidean_gram(space)
    if gram is not None:
        return _gram_certificates(A[None], gram)[0]
    alg = float(_algebraic_residuals(A[None])[0])

    # N = natural_i_operator_matrix on X_C: cos t I + sin t N maps the row
    # x cos phi + y sin phi of (x, y) to the row at phi - t, and the norm is a
    # mean over the full period of phi, so every rotation is an isometry
    if (isinstance(space.norm_desc, ComplexificationOfBase)
            and np.array_equal(A, natural_i_operator_matrix(n // 2))):
        return Certificate(alg, 0.0, 0, True, None)

    iso, witness, used = _sampled_isometry_residual(space, A, seed, samples, angles)
    return Certificate(alg, iso, used, False, witness)


def _algebraic_residuals(As: np.ndarray) -> np.ndarray:
    """max |A^2 + I| of each matrix of a stack (k, n, n)."""
    return np.max(np.abs(As @ As + np.eye(As.shape[-1])), axis=(1, 2))


def _gram_certificates(As: np.ndarray, grams: np.ndarray) -> list:
    """certify of each candidate of a stack As (k, n, n) on the Euclidean-like
    norm whose Gram is grams (one for all, or a stack (k, n, n))."""
    alg = _algebraic_residuals(As)
    At = np.swapaxes(As, 1, 2)
    # rotations are G-isometries iff A'GA = G and GA is antisymmetric
    r1 = np.max(np.abs(At @ grams @ As - grams), axis=(1, 2))
    r2 = np.max(np.abs(At @ grams + grams @ As), axis=(1, 2))
    return [Certificate(float(a), float(max(x, y)), 0, True, None)
            for a, x, y in zip(alg, r1, r2)]


def _sampled_isometry_residual(space: NormedSpace, A: np.ndarray, seed: int,
                               samples: int, angles: int):
    """Max over sampled unit vectors and grid angles of | ||ax + bAx|| - 1 |.

    Complexification norms over Euclidean-like, l1, l-infinity, weighted
    l1/l-infinity, polyhedral and subspace-of-these bases are exact, and every
    other base is integrated between the kinks of each rotated row to far
    below QUAD_RTOL, so the check sees little more than rounding at any angle.
    """
    n = space.dim
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n))
    theta = 2.0 * np.pi * np.arange(angles) / angles
    al, be = np.cos(theta), np.sin(theta)

    worst = -1.0
    witness = None
    chunk = max(1, 32768 // angles)
    for lo in range(0, samples, chunk):
        Xc = X[lo:lo + chunk]
        AXc = Xc @ A.T
        # rows: for each sample, all rotated vectors (angle 0 first as the
        # reference norm)
        R = al[None, :, None] * Xc[:, None, :] + be[None, :, None] * AXc[:, None, :]
        vals = norm_batch(space, R.reshape(-1, n)).reshape(len(Xc), angles)
        ref = vals[:, 0]
        ok = ref > 0
        dev = np.abs(vals[ok] / ref[ok, None] - 1.0)
        if dev.size:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[i, j] > worst:
                worst = float(dev[i, j])
                xi = Xc[ok][i] / ref[ok][i]
                witness = (xi, float(al[j]), float(be[j]))
    return max(worst, 0.0), witness, samples * angles


def reevaluate_witness(space: NormedSpace, A: np.ndarray, witness) -> float:
    """Residual | ||alpha x + beta A x|| - ||x|| | for a recorded witness."""
    x, al, be = witness
    x = np.asarray(x, dtype=float)
    return abs(norm(space, al * x + be * (A @ x)) - norm(space, x))


def validate_i_operator(space: NormedSpace, A, *, tol: Tolerances = DEFAULT_TOL,
                        seed: int = 0, samples: int = DEFAULT_SAMPLE_VECTORS,
                        angles: int = DEFAULT_SAMPLE_ANGLES) -> ComplexStructure:
    """Validate A as an i-operator on the space, or raise with a witness."""
    if space.dim % 2 != 0:
        raise StructureValidationError(
            f"odd dimension {space.dim}: A^2 = -I forces even dimension "
            "(determinant argument)")
    return _accept(space, A, certify(space, A, seed=seed, samples=samples,
                                     angles=angles), tol)


def _accept(space: NormedSpace, A, cert: Certificate,
            tol: Tolerances) -> ComplexStructure:
    """The pair [space, A] if the certificate's residuals are within tol."""
    error = _rejection(cert, tol)
    if error is not None:
        raise error
    return ComplexStructure(space, np.asarray(A, dtype=float), cert)


def _rejection(cert: Certificate,
               tol: Tolerances) -> Optional[StructureValidationError]:
    """The error that rejects a certificate's residuals, or None within tol."""
    if cert.algebraic_residual > tol.tol_alg:
        return StructureValidationError(
            f"algebraic residual ||A^2 + I||_max = {cert.algebraic_residual:.3e} "
            f"exceeds {tol.tol_alg:.1e}", certificate=cert)
    if cert.isometry_residual > tol.tol_iso:
        return StructureValidationError(
            f"isometry residual {cert.isometry_residual:.3e} exceeds "
            f"{tol.tol_iso:.1e}", certificate=cert)
    return None


# ---------------------------------------------------------------------------
# Basic constructions
# ---------------------------------------------------------------------------

def conjugate_structure(s: ComplexStructure) -> ComplexStructure:
    """[X, A] -> [X, -A]; residuals are unchanged."""
    cert = s.certificate
    wit = cert.witness
    if wit is not None:
        # alpha x + beta (-A) x = alpha x + (-beta) A x
        cert = replace(cert, witness=(wit[0], wit[1], -wit[2]))
    return ComplexStructure(s.space, -s.A, cert)


def _split_on(space2: NormedSpace, structures: Sequence[ComplexStructure],
              A2s: np.ndarray, *, tol: Tolerances) -> tuple:
    """theory.split_structure of each structure, all on the space X that space2
    doubles (either norm), with A2s the stack of their A (+) -A: the split
    structures, and the error of each that fails (None where it is kept)."""
    sampled = (isinstance(space2.norm_desc, ComplexificationOfBase)
               and euclidean_gram(space2.norm_desc.base) is None)
    certs = []
    for s, A2 in zip(structures, A2s):
        cert = certify(space2, A2) if sampled else s.certificate
        if not sampled and cert.witness is not None:
            x, alpha, beta = cert.witness
            cert = replace(cert, witness=(np.concatenate([x, np.zeros_like(x)]),
                                          alpha, beta))
        certs.append(cert)
    errors = [_rejection(c, tol) for c in certs]
    return ([None if e else ComplexStructure(space2, A2, c)
             for e, A2, c in zip(errors, A2s, certs)], errors)


def natural_i_operator_matrix(n: int) -> np.ndarray:
    """Block matrix of (x1, x2) -> (-x2, x1) on a doubled space."""
    N = np.zeros((2 * n, 2 * n))
    N[:n, n:] = -np.eye(n)
    N[n:, :n] = np.eye(n)
    return N


def natural_i_operator(base: NormedSpace) -> ComplexStructure:
    """The doubled space with the averaged norm and (x1, x2) -> (-x2, x1).

    N is an i-operator by the argument in certify, so it carries
    BY_CONSTRUCTION: N^2 = -I holds bitwise, and on a Euclidean-like base
    (Gram diag(G, G) / 2) every entry of N'GN - G and GN + N'G is a difference
    of two copies of one entry of G, so both are exactly 0 too.
    """
    space = direct_sum(base, base, "complexification")
    return ComplexStructure(space, natural_i_operator_matrix(base.dim),
                            BY_CONSTRUCTION)


def complex_scalar_action(s: ComplexStructure, alpha: float, beta: float, x) -> np.ndarray:
    """(alpha + i beta) . x := alpha x + beta A x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.space.dim,):
        raise DimensionMismatchError(
            f"expected vector of length {s.space.dim}, got {x.shape}")
    return alpha * x + beta * (s.A @ x)


# ---------------------------------------------------------------------------
# Existence
# ---------------------------------------------------------------------------

FOUND = "found"
ODD_DIMENSION = "odd dimension"
NONE_FINITE_GROUP = "none: finite isometry group"
UNDECIDED = "undecided"


@dataclass(eq=False)
class SearchResult:
    found: Optional[ComplexStructure]
    best_residual: float  # algebraic + isometry residual of best_candidate
    tag: str  # FOUND | ODD_DIMENSION | NONE_FINITE_GROUP | UNDECIDED
    best_candidate: Optional[np.ndarray] = None


def search_i_operator(space: NormedSpace, *,
                      tol: Tolerances = DEFAULT_TOL) -> SearchResult:
    """Decide whether the space carries an i-operator.

    - Odd dimension: none (A^2 = -I forces an even dimension).
    - Euclidean-like norm with Gram G = L L': A = L^-T J L' is one, J the
      canonical block rotation (A'GA = G and GA is antisymmetric).  It is
      checked algebraically in whitened coordinates, where the norm is l2:
      W = L' A L^-T against W^2 = -I and W'W = I, and the certificate holds
      W's residuals.  These are A's conditions measured in the space's own
      norm; in the coordinate basis A's entries grow with the condition of G
      and so does the rounding in A^2 + I.  W's residuals measure A against
      L L', not G, so the isometry residual also counts Cholesky's backward
      error max |L^-1 G L^-T - I| (0 for G = I).
    - Any other complexification X_C: the natural operator N, an isometry by
      construction (see certify), with residual 0.
    - Lp or WeightedLp with p != 2 (signed permutations by Banach-Lamperti,
      up to the weights) and every norm whose unit ball is a polytope
      (l1, l-infinity, weighted l1/l-infinity, Polyhedral and subspaces of
      these: the isometries permute the finitely many vertices): the isometry
      group is finite, so it cannot contain the circle {alpha I + beta A}.
    - Any other norm (sums, subspaces of general-p bases) is undecided,
      which is not a nonexistence proof.  So is a Gram matrix so
      ill-conditioned that W misses tol in floating point (a 2 x 2
      Gram of condition 1e8 often does: the whitened residual of even the
      correctly rounded A is of order eps * cond(G)); A is still returned as
      best_candidate.
    """
    n = space.dim
    if n % 2 != 0:
        return SearchResult(None, float("inf"), ODD_DIMENSION)
    gram = euclidean_gram(space)
    if gram is not None:
        L = np.linalg.cholesky(gram)
        A = np.linalg.solve(L.T, natural_i_operator_matrix(n // 2) @ L.T)
        W = L.T @ np.linalg.solve(L, A.T).T
        c = certify(lp_space(n, 2.0), W)
        # W's residuals measure A against L L', the computed factorisation;
        # G differs from it by Cholesky's backward error, measured here in
        # the same whitened coordinates
        whitened_gram = np.linalg.solve(L, np.linalg.solve(L, gram).T)
        c = replace(c, isometry_residual=c.isometry_residual + float(
            np.max(np.abs(whitened_gram - np.eye(n)))))
        try:
            s = _accept(space, A, c, tol)
        except StructureValidationError as exc:
            c = exc.certificate
            return SearchResult(None, c.algebraic_residual + c.isometry_residual,
                                UNDECIDED, A)
        c = s.certificate
        return SearchResult(s, c.algebraic_residual + c.isometry_residual, FOUND, A)
    if isinstance(space.norm_desc, ComplexificationOfBase):
        s = natural_i_operator(space.norm_desc.base)
        return SearchResult(s, 0.0, FOUND, s.A)
    # p = 2 is Euclidean-like and decided above
    if (isinstance(space.norm_desc, (Lp, WeightedLp))
            or _sinusoid_pieces(space) is not None):
        return SearchResult(None, float("inf"), NONE_FINITE_GROUP)
    return SearchResult(None, float("inf"), UNDECIDED)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def witness_to_dict(witness) -> Optional[dict]:
    """A certificate's (x, alpha, beta) witness as JSON data."""
    if witness is None:
        return None
    x, alpha, beta = witness
    return {"x": np.asarray(x).tolist(), "alpha": alpha, "beta": beta}
