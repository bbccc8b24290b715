"""Pairs [X, A]: i-operator validation, conjugation, and existence decision.

An i-operator A on a real space X satisfies A^2 = -I and makes every rotation
alpha*I + beta*A with alpha^2 + beta^2 = 1 an isometry.  A construction that
proves its result is an i-operator (the natural operator N on a
complexification, signed pairings on l2, A (+) -A on a square) attaches the
certificate of that proof, BY_CONSTRUCTION or the one it inherits, and runs no
check; an averaged square that no theorem covers is refused (_split_on).
Only candidates are measured, by `certify`, the search's among them: exactly
(algebraically) for Euclidean-like norms, structurally for N on a
complexification, part by part for A1 (+) A2 on an l1-sum whose parts both
certify exactly, and by sampling otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, SAMPLE_SEED, Tolerances
from .errors import IstructError, StructureValidationError, single
from .spaces import (ComplexificationOfBase, Lp, NormedSpace, SumNorm, WeightedLp,
                     _check_vector, _checked_operator, euclidean_gram, norm,
                     norm_batch, space_equal)

DEFAULT_SAMPLE_VECTORS = 512
DEFAULT_SAMPLE_ANGLES = 64
# fewer grid angles check nothing: angle 0 is the reference, every norm even
MIN_SAMPLE_VECTORS = 1
MIN_SAMPLE_ANGLES = 3


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

    def __post_init__(self):
        self.A = _checked_operator(self.A, self.space, self.space, "A")


def structure_equal(a: ComplexStructure, b: ComplexStructure) -> bool:
    return space_equal(a.space, b.space) and np.array_equal(a.A, b.A)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def certify(space: NormedSpace, A, *, samples: int = DEFAULT_SAMPLE_VECTORS,
            angles: int = DEFAULT_SAMPLE_ANGLES) -> Certificate:
    """Compute residuals for a candidate i-operator without rejecting it."""
    if samples < MIN_SAMPLE_VECTORS or angles < MIN_SAMPLE_ANGLES:
        raise IstructError(f"certify needs samples >= {MIN_SAMPLE_VECTORS} and "
                           f"angles >= {MIN_SAMPLE_ANGLES}, got {samples} and {angles}")
    A = _checked_operator(A, space, space, "A")
    cert = _exact_certificate(space, A)
    if cert is not None:
        return cert
    alg = float(_algebraic_residuals(A[None])[0])
    iso, witness, used = _sampled_isometry_residual(space, A, samples, angles)
    return Certificate(alg, iso, used, False, witness)


def _exact_certificate(space: NormedSpace, A: np.ndarray) -> Optional[Certificate]:
    """certify's exact certificate of A, or None where it would sample."""
    d = space.norm_desc
    # N = natural_i_operator_matrix on X_C: cos t I + sin t N maps the row
    # x cos phi + y sin phi of (x, y) to the row at phi - t, and the norm is a
    # mean over the full period of phi, so every rotation is an isometry
    # (tested first: the Gram test would lose N's exact zeros to rounding)
    if (isinstance(d, ComplexificationOfBase)
            and np.array_equal(A, natural_i_operator_matrix(space.dim // 2))):
        return Certificate(float(_algebraic_residuals(A[None])[0]), 0.0, 0, True, None)
    if space._whitening is not None:
        return _gram_certificates(A[None], euclidean_gram(space), *space._whitening)[0]
    # on ||x1|| + ||x2||, a rotation of A1 (+) A2 is an isometry when the
    # rotations of A1 and of A2 are, each on its part
    if isinstance(d, SumNorm):
        n = d.left.dim
        if not (np.any(A[:n, n:]) or np.any(A[n:, :n])):
            parts = (_exact_certificate(d.left, A[:n, :n]),
                     _exact_certificate(d.right, A[n:, n:]))
            if None not in parts:
                return _joined(parts)
    return None


def _joined(parts) -> Certificate:
    """The exact certificate of A1 (+) A2 from those of A1 and A2: each
    residual is the larger of the two parts' (A^2 + I is block diagonal)."""
    return Certificate(max(c.algebraic_residual for c in parts),
                       max(c.isometry_residual for c in parts), 0, True, None)


def _algebraic_residuals(As: np.ndarray) -> np.ndarray:
    """max |A^2 + I| of each matrix of a stack (k, n, n)."""
    return np.max(np.abs(As @ As + np.eye(As.shape[-1])), axis=(1, 2))


def _gram_certificates(As: np.ndarray, grams: np.ndarray, Lt: np.ndarray,
                       Lt_inv: np.ndarray) -> list:
    """certify of each candidate of a stack As (k, n, n) on the Euclidean-like
    norm with Gram G = grams, whose _whitening_factors are Lt = L' and
    Lt_inv = L'^-1 (one Gram for all, or their stacks).

    Rotations are G-isometries iff A'GA = G and GA is antisymmetric.  Both
    are measured whitened, for W = L'AL'^-1 and M = L^-1 G L^-T (I up to
    Cholesky's backward error): L^-1 (A'GA - G) L^-T is W'MW - M and
    L^-1 (GA + A'G) L^-T is MW + W'M, for any invertible L.  So A is measured
    against G itself, in the space's own norm, without the growth with the
    condition of G of A'GA formed in coordinates; the algebraic residual is
    W^2 + I.  For G = I, W is A and M is I."""
    W = Lt @ As @ Lt_inv
    M = np.swapaxes(Lt_inv, -1, -2) @ grams @ Lt_inv
    MW = M @ W
    alg = _algebraic_residuals(W)
    r1 = np.max(np.abs(np.swapaxes(W, 1, 2) @ MW - M), axis=(1, 2))
    r2 = np.max(np.abs(MW + np.swapaxes(MW, 1, 2)), axis=(1, 2))
    return [Certificate(float(a), float(max(x, y)), 0, True, None)
            for a, x, y in zip(alg, r1, r2)]


def _sampled_isometry_residual(space: NormedSpace, A: np.ndarray, samples: int,
                               angles: int):
    """Max over sampled unit vectors and grid angles of | ||ax + bAx|| - 1 |.

    Complexification norms over the bases with an exact form (listed in
    spaces._Form) are exact, and every other base is integrated between the
    kinks of each rotated row by Gauss-Kronrod panels that each settle to
    their share of QUAD_RTOL; the Kronrod values are then good to about
    rounding, so the check sees little more than rounding at any angle.  A block-diagonal A on an l1-sum
    whose blocks both certify exactly never comes here (see certify).
    """
    n = space.dim
    rng = np.random.default_rng(SAMPLE_SEED)
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
        # a reference that under- or overflowed (a Gram norm with extreme
        # entries, say) measures nothing; a rotated norm that did counts as
        # infinitely far
        ok = (ref > 0) & (ref < np.inf)
        dev = np.abs(vals[ok] / ref[ok, None] - 1.0)
        dev[np.isnan(dev)] = np.inf
        if dev.size:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[i, j] > worst:
                worst = float(dev[i, j])
                xi = Xc[ok][i] / ref[ok][i]
                witness = (xi, float(al[j]), float(be[j]))
    # no sample with a usable reference is no evidence of an isometry
    return (worst if worst >= 0.0 else np.inf), witness, samples * angles


def reevaluate_witness(space: NormedSpace, A: np.ndarray, witness) -> float:
    """Residual | ||alpha x + beta A x|| - ||x|| | for a recorded witness."""
    x, al, be = witness
    x = np.asarray(x, dtype=float)
    return abs(norm(space, al * x + be * (A @ x)) - norm(space, x))


def validate_i_operator(space: NormedSpace, A, *, tol: Tolerances = DEFAULT_TOL,
                        samples: int = DEFAULT_SAMPLE_VECTORS,
                        angles: int = DEFAULT_SAMPLE_ANGLES) -> ComplexStructure:
    """Validate A as an i-operator on the space, or raise with a witness."""
    if space.dim % 2 != 0:
        raise StructureValidationError(
            f"odd dimension {space.dim}: A^2 = -I forces even dimension "
            "(determinant argument)")
    cert = certify(space, A, samples=samples, angles=angles)
    return single(ComplexStructure(space, np.asarray(A, dtype=float), cert),
                  _rejection(cert, tol))


def _rejection(cert: Certificate,
               tol: Tolerances) -> Optional[StructureValidationError]:
    """The error that rejects a certificate's residuals, or None within tol."""
    if not cert.algebraic_residual <= tol.tol_alg:
        return StructureValidationError(
            f"algebraic residual ||A^2 + I||_max = {cert.algebraic_residual:.3e} "
            f"exceeds {tol.tol_alg:.1e}", certificate=cert)
    if not cert.isometry_residual <= tol.tol_iso:
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


def _split_on(space2: NormedSpace, A2s: np.ndarray,
              certificates: Sequence[Certificate], *, tol: Tolerances) -> tuple:
    """The squares [space2, A (+) -A] of k structures [X, A] with their
    certificates, space2 being X (+) X with the sum norm or X_C, and A2s
    (k, 2n, 2n) their A (+) -A: the squares' certificates (None if refused
    unchecked) and errors (None if kept).  A rotation turns the first half by
    cos t I + sin t A and the second by cos t I - sin t A, each an isometry of
    X.  So with the sum norm a square inherits its certificate, a witness x
    lifted to (x, 0).  On X_C, A (+) -A is an i-operator iff X's norm comes
    from an inner product, so it inherits only where that is proved: X has a
    Gram, or X is a plane (A = PJP^-1 makes P^-1 of its unit ball a disc).
    Any other X is refused."""
    d = space2.norm_desc
    if (isinstance(d, ComplexificationOfBase) and d.base.dim != 2
            and euclidean_gram(d.base) is None):
        return [None] * len(A2s), [StructureValidationError(
            "A (+) -A is an i-operator on the averaged square iff X's norm is an inner "
            "product's, which only a Gram or dimension 2 proves here") for _ in A2s]
    certs = [c if c.witness is None else replace(c, witness=(np.concatenate(
        [c.witness[0], np.zeros_like(c.witness[0])]), *c.witness[1:])) for c in certificates]
    return certs, [_rejection(c, tol) for c in certs]


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

    The structure depends on the base alone, which is immutable (see
    NormedSpace), so it is built once and cached on the base: every call with
    the same base returns the same object, which callers share and must not
    modify; its space is base's averaged double X_C, and its N is read-only.
    """
    s = vars(base).get("_natural_i_operator")
    if s is None:
        N = natural_i_operator_matrix(base.dim)
        N.flags.writeable = False
        s = ComplexStructure(NormedSpace(2 * base.dim, ComplexificationOfBase(base)), N,
                             BY_CONSTRUCTION)
        vars(base)["_natural_i_operator"] = s
    return s


def complex_scalar_action(s: ComplexStructure, alpha: float, beta: float, x) -> np.ndarray:
    """(alpha + i beta) . x := alpha x + beta A x."""
    x = _check_vector(x, s.space.dim)
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
    - A space whose form constructs an i-operator (see _construction): found
      iff certify's certificate of the construction passes tol, and returned
      with that certificate unchanged, so validate_i_operator accepts exactly
      what the search finds.  Otherwise undecided, with the construction as
      best_candidate: on a Gram of condition 1e8 or more, W's residual of even
      the correctly rounded A is of order eps * cond(G) and can miss tol.
    - Lp or WeightedLp with p != 2 (signed permutations by Banach-Lamperti,
      up to the weights) and every norm with pieces, whose unit ball is a
      polytope (see spaces._Form; l1-sums of lines are among them): the
      isometries permute the finitely many vertices.  The isometry group is
      finite, so it cannot contain the circle {alpha I + beta A}.
    - Any other norm (other sums, subspaces of general-p bases) is
      undecided, which is not a nonexistence proof.
    """
    if space.dim % 2 != 0:
        return SearchResult(None, float("inf"), ODD_DIMENSION)
    A = _construction(space)
    if A is not None:
        c = certify(space, A)
        residual = c.algebraic_residual + c.isometry_residual
        if _rejection(c, tol) is not None:
            return SearchResult(None, residual, UNDECIDED, A)
        return SearchResult(ComplexStructure(space, A, c), residual, FOUND, A)
    # p = 2 is Euclidean-like and constructs one
    if (isinstance(space.norm_desc, (Lp, WeightedLp))
            or space._form.pieces is not None):
        return SearchResult(None, float("inf"), NONE_FINITE_GROUP)
    return SearchResult(None, float("inf"), UNDECIDED)


def _construction(space: NormedSpace) -> Optional[np.ndarray]:
    """The i-operator that the space's form gives, each certified exactly by
    certify, or None: N on a complexification X_C (an isometry by the
    argument in certify); A = L^-T J L' on any other Gram G = L L', J the
    canonical block rotation (A'GA = G and GA is antisymmetric); and
    A1 (+) A2 on an l1-sum whose two parts both construct one."""
    n, d = space.dim, space.norm_desc
    if n % 2 != 0:
        return None
    if isinstance(d, ComplexificationOfBase):
        return natural_i_operator_matrix(n // 2)
    if space._whitening is not None:
        Lt, Lt_inv = space._whitening
        return Lt_inv @ natural_i_operator_matrix(n // 2) @ Lt
    if isinstance(d, SumNorm):
        left, right = _construction(d.left), _construction(d.right)
        if left is not None and right is not None:
            A = np.zeros((n, n))
            k = d.left.dim
            A[:k, :k], A[k:, k:] = left, right
            return A
    return None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def witness_to_dict(witness) -> dict:
    """A certificate's (x, alpha, beta) witness as JSON data."""
    x, alpha, beta = witness
    return {"x": np.asarray(x).tolist(), "alpha": alpha, "beta": beta}
