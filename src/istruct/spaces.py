"""Finite-dimensional real normed spaces and the averaged complexification norm.

A space is a dimension plus a norm descriptor.  The complexification norm on
X (+) X is the L2 average of || x cos(phi) + y sin(phi) || over a full period.

For l1, l-infinity, weighted l1/l-infinity and polyhedral bases, and subspaces
of them, the base norm is a sum or a maximum of |<f_j, .>|, so the integrand
is built from sinusoids |a_j cos(phi) + b_j sin(phi)| and its mean has a closed
form; these kinds are evaluated exactly.

For general-p bases, sums and subspaces of these, the integrand is analytic
between the zeros of finitely many functionals (see _breakpoint_functionals).
The period is split there and each arc is integrated by composite
Gauss-Legendre quadrature, which converges spectrally where the periodic
trapezoid rule, held back by the kinks, does not.  Only Euclidean-like bases,
whose integrand is smooth, and nested complexifications (with sums or
subspaces that have such a part) use the periodic trapezoid rule with node
doubling.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DescriptorError, DimensionMismatchError, QuadratureError

# Quadrature policy for bases without a closed form (see _sinusoid_pieces).
# QUAD_RTOL is the relative accuracy sought for the mean square and
# QUAD_MAX_NODES the norm evaluations allowed per row.  Arc quadrature (bases
# with breakpoint functionals) refines arc by arc until two successive
# doublings each change an arc by less than its share of QUAD_RTOL.  The
# trapezoid rule (the other bases: Euclidean-like, nested complexifications)
# takes uniform nodes on [-pi, pi), doubling from QUAD_START_NODES, until every
# batch entry changes by less than QUAD_RTOL.  A row that reaches the node
# budget first keeps its last value if its last relative change is below
# QUAD_FAIL_RTOL; otherwise a QuadratureError is raised.
QUAD_START_NODES = 64
QUAD_MAX_NODES = 4096
QUAD_RTOL = 1e-10
QUAD_FAIL_RTOL = 1e-5

_CHUNK_ELEMENTS = 4_000_000

# 8-point Gauss-Legendre rule on [0, 1], the panel rule of the arc quadrature
_GL_POINTS = 8
_GL_T, _GL_W = np.polynomial.legendre.leggauss(_GL_POINTS)
_GL_T, _GL_W = (_GL_T + 1.0) / 2.0, _GL_W / 2.0


# ---------------------------------------------------------------------------
# Norm descriptors
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Lp:
    p: float  # in [1, inf]; math.inf means the max norm


@dataclass(eq=False)
class WeightedLp:
    p: float
    weights: np.ndarray  # positive, length = dim


@dataclass(eq=False)
class EuclideanQuadratic:
    gram: np.ndarray  # symmetric positive definite


@dataclass(eq=False)
class Polyhedral:
    functionals: np.ndarray  # rows are covectors; norm = max |<f, x>|


@dataclass(eq=False)
class ComplexificationOfBase:
    base: "NormedSpace"  # total dim = 2 * base.dim


@dataclass(eq=False)
class SumNorm:
    left: "NormedSpace"
    right: "NormedSpace"


@dataclass(eq=False)
class SubspaceNorm:
    """Norm induced on a subspace: ||c|| = ||basis @ c|| in the ambient space."""

    ambient: "NormedSpace"
    basis: np.ndarray  # ambient.dim x dim, full column rank


NormDescriptor = Union[
    Lp, WeightedLp, EuclideanQuadratic, Polyhedral,
    ComplexificationOfBase, SumNorm, SubspaceNorm,
]


@dataclass(eq=False)
class NormedSpace:
    dim: int
    norm_desc: NormDescriptor

    def __post_init__(self):
        _check_descriptor(self.dim, self.norm_desc)


def _check_descriptor(dim: int, d: NormDescriptor) -> None:
    if dim <= 0:
        raise DescriptorError("dimension must be positive")
    if isinstance(d, Lp):
        if not (d.p >= 1):
            raise DescriptorError("Lp requires p >= 1")
    elif isinstance(d, WeightedLp):
        d.weights = np.asarray(d.weights, dtype=float)
        if d.weights.shape != (dim,):
            raise DescriptorError("weight vector length must equal dim")
        _check_finite(d.weights, "weights")
        if not (d.p >= 1):
            raise DescriptorError("WeightedLp requires p >= 1")
        if not np.all(d.weights > 0):
            raise DescriptorError("weights must be positive")
    elif isinstance(d, EuclideanQuadratic):
        d.gram = np.asarray(d.gram, dtype=float)
        if d.gram.shape != (dim, dim):
            raise DescriptorError("Gram matrix shape must be dim x dim")
        _check_finite(d.gram, "Gram matrix")
        if not np.allclose(d.gram, d.gram.T, atol=1e-12):
            raise DescriptorError("Gram matrix must be symmetric")
        if np.linalg.eigvalsh(d.gram)[0] <= 0:
            raise DescriptorError("Gram matrix must be positive definite")
    elif isinstance(d, Polyhedral):
        d.functionals = np.asarray(d.functionals, dtype=float)
        if d.functionals.ndim != 2 or d.functionals.shape[1] != dim:
            raise DescriptorError("functionals must be rows of length dim")
        _check_finite(d.functionals, "functionals")
        if np.linalg.matrix_rank(d.functionals) < dim:
            raise DescriptorError("functionals must span the dual (definite norm)")
    elif isinstance(d, ComplexificationOfBase):
        if dim != 2 * d.base.dim:
            raise DescriptorError("complexification dim must be twice the base dim")
    elif isinstance(d, SumNorm):
        if dim != d.left.dim + d.right.dim:
            raise DescriptorError("sum-norm dim must be the sum of the part dims")
    elif isinstance(d, SubspaceNorm):
        d.basis = np.asarray(d.basis, dtype=float)
        if d.basis.shape != (d.ambient.dim, dim):
            raise DescriptorError("basis must be ambient.dim x dim")
        _check_finite(d.basis, "basis")
        if np.linalg.matrix_rank(d.basis) < dim:
            raise DescriptorError("basis must have full column rank")
    else:
        raise DescriptorError(f"unknown descriptor {type(d).__name__}")


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise DescriptorError(f"{what} must be finite")


def descriptor_equal(a: NormDescriptor, b: NormDescriptor) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Lp):
        return a.p == b.p
    if isinstance(a, WeightedLp):
        return a.p == b.p and np.array_equal(a.weights, b.weights)
    if isinstance(a, EuclideanQuadratic):
        return np.array_equal(a.gram, b.gram)
    if isinstance(a, Polyhedral):
        return np.array_equal(a.functionals, b.functionals)
    if isinstance(a, ComplexificationOfBase):
        return space_equal(a.base, b.base)
    if isinstance(a, SumNorm):
        return space_equal(a.left, b.left) and space_equal(a.right, b.right)
    if isinstance(a, SubspaceNorm):
        return space_equal(a.ambient, b.ambient) and np.array_equal(a.basis, b.basis)
    return False


def space_equal(a: NormedSpace, b: NormedSpace) -> bool:
    return a.dim == b.dim and descriptor_equal(a.norm_desc, b.norm_desc)


# Convenience constructors -------------------------------------------------

def lp_space(dim: int, p: float) -> NormedSpace:
    return NormedSpace(dim, Lp(float(p)))


def euclidean_space(dim: int, gram: Optional[np.ndarray] = None) -> NormedSpace:
    if gram is None:
        return lp_space(dim, 2.0)
    return NormedSpace(dim, EuclideanQuadratic(np.asarray(gram, dtype=float)))


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------

def _check_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"expected vector of length {dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DimensionMismatchError("vector entries must be finite")
    return x


def norm(space: NormedSpace, x) -> float:
    """Evaluate the space's norm at a single vector."""
    x = _check_vector(x, space.dim)
    return float(norm_batch(space, x[None, :])[0])


def norm_batch(space: NormedSpace, X: np.ndarray) -> np.ndarray:
    """Evaluate the norm for each row of X (shape (k, dim))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != space.dim:
        raise DimensionMismatchError(f"expected batch of dim-{space.dim} rows, got {X.shape}")
    d = space.norm_desc
    if isinstance(d, Lp):
        return _lp_batch(X, d.p, None)
    if isinstance(d, WeightedLp):
        return _lp_batch(X, d.p, d.weights)
    if isinstance(d, EuclideanQuadratic):
        return np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", X, d.gram, X), 0.0))
    if isinstance(d, Polyhedral):
        return np.max(np.abs(X @ d.functionals.T), axis=1)
    if isinstance(d, ComplexificationOfBase):
        n = d.base.dim
        return complexification_norm_batch(d.base, X[:, :n], X[:, n:])
    if isinstance(d, SumNorm):
        n = d.left.dim
        return norm_batch(d.left, X[:, :n]) + norm_batch(d.right, X[:, n:])
    if isinstance(d, SubspaceNorm):
        return norm_batch(d.ambient, X @ d.basis.T)
    raise DescriptorError(f"unknown descriptor {type(d).__name__}")


def _lp_batch(X: np.ndarray, p: float, weights) -> np.ndarray:
    A = np.abs(X)
    if weights is not None and math.isinf(p):
        A = A * weights
    if math.isinf(p):
        return np.max(A, axis=1)
    if p == 1.0:
        if weights is not None:
            return A @ weights
        return np.sum(A, axis=1)
    if p == 2.0:
        if weights is not None:
            return np.sqrt((A * A) @ weights)
        return np.sqrt(np.sum(A * A, axis=1))
    P = A ** p
    if weights is not None:
        return (P @ weights) ** (1.0 / p)
    return np.sum(P, axis=1) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Complexification norm: closed forms, trapezoid quadrature otherwise
# ---------------------------------------------------------------------------

def complexification_norm(base: NormedSpace, x, y, *, rtol: float = QUAD_RTOL,
                          max_nodes: int = QUAD_MAX_NODES) -> float:
    """Averaged norm ( mean over phi of ||x cos phi + y sin phi||^2 )^(1/2)."""
    x = _check_vector(x, base.dim)
    y = _check_vector(y, base.dim)
    return float(complexification_norm_batch(base, x[None, :], y[None, :],
                                             rtol=rtol, max_nodes=max_nodes)[0])


def complexification_norm_batch(base: NormedSpace, X: np.ndarray, Y: np.ndarray, *,
                                rtol: float = QUAD_RTOL,
                                max_nodes: int = QUAD_MAX_NODES) -> np.ndarray:
    """Batched complexification norm.

    Bases recognized by `_sinusoid_pieces` are evaluated exactly.  Bases with
    breakpoint functionals (`_breakpoint_functionals`) are integrated arc by
    arc between their kinks, each row on its own arcs, so rotating a row moves
    its arcs with it and rotation invariance holds to a few ulps at every
    angle.  The others (Euclidean-like bases, nested complexifications, and
    sums or subspaces with a nested complexification part) go through the
    trapezoid rule, where all rows share the node count; there rotation
    invariance is exact at the discrete level whenever the rotation angle is a
    multiple of the node spacing.  ``rtol`` and ``max_nodes`` govern both
    quadratures.

    The norm is homogeneous, so each row pair is first scaled by a power of
    two near its largest entry and the value scaled back: nothing overflows or
    underflows in between, and the scaling itself is exact.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[1] != base.dim:
        raise DimensionMismatchError("X, Y must both be (k, base.dim)")
    k = X.shape[0]
    if k == 0:
        return np.zeros(0)
    nonzero = np.any(X != 0.0, axis=1) | np.any(Y != 0.0, axis=1)
    out = np.zeros(k)
    if not np.any(nonzero):
        return out
    Xn, Yn = X[nonzero], Y[nonzero]
    _, exp = np.frexp(np.maximum(np.max(np.abs(Xn), axis=1),
                                 np.max(np.abs(Yn), axis=1)))
    Xn, Yn = np.ldexp(Xn, -exp[:, None]), np.ldexp(Yn, -exp[:, None])

    pieces = _sinusoid_pieces(base)
    if pieces is not None:
        mean_sq = _sinusoid_mean_sq(Xn, Yn, *pieces)
    else:
        G = _breakpoint_functionals(base)
        if G is None:
            mean_sq = _trapezoid_mean_sq(base, Xn, Yn, rtol, max_nodes)
        else:
            mean_sq = _arc_mean_sq(base, Xn, Yn, G, rtol, max_nodes)
    out[nonzero] = np.ldexp(np.sqrt(np.maximum(mean_sq, 0.0)), exp)
    return out


def _sinusoid_mean_sq(X: np.ndarray, Y: np.ndarray, F: np.ndarray,
                      combiner: str) -> np.ndarray:
    """Exact mean over phi of ||x cos phi + y sin phi||^2, per row, for the base
    norm sum_j |<f_j, .>| ("sum") or max_j |<f_j, .>| ("max"), f_j the rows of F.

    Along the row the j-th term is |a_j cos phi + b_j sin phi| with
    a = F x and b = F y, i.e. |P_j . u| for P_j = (a_j, b_j), u = (cos, sin).
    """
    A, B = X @ F.T, Y @ F.T
    m = F.shape[0]
    mean_sq = _sum_mean_sq if combiner == "sum" else _max_mean_sq
    # chunk over rows to bound the (rows, m, 2m) pairwise intermediates
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // (2 * m * m))
    return np.concatenate([mean_sq(A[lo:lo + rows_per_chunk], B[lo:lo + rows_per_chunk])
                           for lo in range(0, len(A), rows_per_chunk)])


def _sum_mean_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean of (sum_j |P_j . u|)^2: each pair of terms averages to
    ((pi/2 - delta) P_j.P_l + |P_j x P_l|) / pi, delta the angle between them."""
    dot = a[:, :, None] * a[:, None, :] + b[:, :, None] * b[:, None, :]
    cross = np.abs(a[:, :, None] * b[:, None, :] - b[:, :, None] * a[:, None, :])
    delta = np.arctan2(cross, dot)
    return np.sum((np.pi / 2 - delta) * dot + cross, axis=(1, 2)) / np.pi


def _max_mean_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean of max_j (P_j . u)^2, integrated arc by arc.

    P_j attains the maximum on the arc of directions where P_j.u >= +-P_l.u for
    every l, and -P_j on the opposite arc.  Each condition is the half circle
    around D = P_j -+ P_l, so the arc follows from the angles of these D
    relative to P_j, and |P_j|^2 cos^2 is integrated over it exactly.  Two
    functionals see one D with opposite signs (it is formed by a single
    subtraction), so their arcs meet without overlap or gap even when the
    functionals nearly coincide; exact duplicates leave the arc to the lower
    index.
    """
    m = a.shape[1]
    aj, bj = a[:, :, None], b[:, :, None]
    earlier = np.tri(m, k=-1, dtype=bool)  # earlier[j, l] is l < j
    duplicate = np.zeros(a.shape, dtype=bool)
    # largest and smallest angle of the D relative to P_j; the start value 0 is
    # D = P_j itself, the condition P_j.u >= 0
    top = np.zeros(a.shape)
    bottom = np.zeros(a.shape)
    for sign in (-1.0, 1.0):
        da = aj + sign * a[:, None, :]
        db = bj + sign * b[:, None, :]
        zero = (da == 0.0) & (db == 0.0)
        duplicate |= np.any(zero & earlier, axis=2)
        # D = 0 constrains nothing (atan2 of signed zeros could say pi)
        rel = np.where(zero, 0.0, np.arctan2(aj * db - bj * da, aj * da + bj * db))
        top = np.maximum(top, rel.max(axis=2))
        bottom = np.minimum(bottom, rel.min(axis=2))
    width = np.where(duplicate, 0.0, np.maximum(bottom - top + np.pi, 0.0))
    # the arc is [top - pi/2, bottom + pi/2]; the arcs of -P_j double the sum
    integral = (a * a + b * b) * (width + np.cos(top + bottom) * np.sin(width))
    return np.sum(integral, axis=1) / (2.0 * np.pi)


def _arc_mean_sq(base: NormedSpace, X: np.ndarray, Y: np.ndarray, G: np.ndarray,
                 rtol: float, max_nodes: int) -> np.ndarray:
    """Mean over phi of ||x cos phi + y sin phi||^2, per row, integrated arc by
    arc between the zeros of <g, x cos phi + y sin phi> for the rows g of G.

    The integrand has period pi, and its kinks and endpoint singularities lie
    at those zeros, so it is analytic inside each arc.  Each arc takes
    composite 8-point Gauss-Legendre after the smoothstep substitution (see
    _arc_rule) and doubles its panels until two successive doublings have each
    changed it by less than its width's share of rtol times the row's
    integral: at 8 and 16 nodes two estimates can agree by chance while both
    are still off.  A row whose next doubling would take it past max_nodes
    evaluations stops there; its unsettled change must then be below
    QUAD_FAIL_RTOL, otherwise a QuadratureError is raised.
    """
    k = len(X)
    A, B = X @ G.T, Y @ G.T
    zeros = np.arctan2(A, -B)
    # a functional vanishing on the whole row has no zero: repeat the zero of
    # the row's largest functional, which makes an empty arc
    largest = zeros[np.arange(k), np.argmax(np.abs(A) + np.abs(B), axis=1)]
    zeros = np.where((A == 0.0) & (B == 0.0), largest[:, None], zeros)
    ends = np.sort(np.mod(zeros, np.pi), axis=1)
    widths = np.diff(ends, axis=1, append=ends[:, :1] + np.pi)
    row, col = np.nonzero(widths > 0.0)
    start, width = ends[row, col], widths[row, col]
    Xa, Ya = X[row], Y[row]

    value = _arc_integrals(base, Xa, Ya, start, width, 0)
    change = np.zeros(len(row))
    passed = np.zeros(len(row), dtype=bool)
    # levels 0 and 1 are always taken: their difference is the first estimate
    used = 3 * _GL_POINTS * np.bincount(row, minlength=k)
    active = np.arange(len(row))
    level = 0
    while active.size:
        level += 1
        new = _arc_integrals(base, Xa[active], Ya[active], start[active],
                             width[active], level)
        change[active] = new - value[active]
        value[active] = new
        total = np.bincount(row, weights=value, minlength=k)
        ok = np.abs(change[active]) <= rtol / np.pi * total[row[active]] * width[active]
        settled = ok & passed[active]
        passed[active] = ok
        active = active[~settled]
        # rows whose next doubling would pass the node budget stop here
        used += _GL_POINTS * 2 ** (level + 1) * np.bincount(row[active], minlength=k)
        stop = (used > max_nodes)[row[active]]
        if np.any(stop):
            unsettled = np.bincount(row[active[stop]],
                                    weights=np.abs(change[active[stop]]), minlength=k)
            worst = float(np.max(unsettled / total))
            if worst > QUAD_FAIL_RTOL:
                raise QuadratureError(
                    f"quadrature did not settle within {max_nodes} nodes "
                    f"(last relative change {worst:.3e})")
            active = active[~stop]
    return np.bincount(row, weights=value, minlength=k) / np.pi


# one entry per level reached; no rule is larger than a row's node budget
@functools.lru_cache(maxsize=None)
def _arc_rule(level: int) -> tuple:
    """Nodes and weights on [0, 1] of composite 8-point Gauss-Legendre with
    2**level panels, after the substitution t -> 3t^2 - 2t^3.

    The substitution's derivative 6t(1 - t) vanishes at both ends, which turns
    an endpoint singularity |phi - phi_0|^p of the integrand into t^(2p + 1).
    """
    panels = 2 ** level
    t = ((np.arange(panels)[:, None] + _GL_T) / panels).ravel()
    weights = np.tile(_GL_W, panels) / panels
    nodes, weights = t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t) * weights
    nodes.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return nodes, weights


def _arc_integrals(base: NormedSpace, X: np.ndarray, Y: np.ndarray, start: np.ndarray,
                   width: np.ndarray, level: int) -> np.ndarray:
    """Integral of ||x cos phi + y sin phi||^2 over [start, start + width] per
    row, by the rule of _arc_rule at the given level."""
    s, w = _arc_rule(level)
    n = len(s)
    k, d = X.shape
    out = np.empty(k)
    # chunk over arcs to bound the (arcs * nodes, dim) intermediate
    per_chunk = max(1, _CHUNK_ELEMENTS // (n * d))
    for lo in range(0, k, per_chunk):
        hi = min(k, lo + per_chunk)
        phi = start[lo:hi, None] + width[lo:hi, None] * s
        c, sn = np.cos(phi), np.sin(phi)
        # one coordinate at a time: far faster than broadcasting over a short
        # last axis
        Z = np.stack([X[lo:hi, j, None] * c + Y[lo:hi, j, None] * sn
                      for j in range(d)], axis=-1)
        vals = norm_batch(base, Z.reshape(-1, d)).reshape(hi - lo, n)
        out[lo:hi] = width[lo:hi] * np.sum(vals * vals * w, axis=1)
    return out


def _trapezoid_mean_sq(base: NormedSpace, X: np.ndarray, Y: np.ndarray,
                       rtol: float, max_nodes: int) -> np.ndarray:
    """Mean over phi of ||x cos phi + y sin phi||^2, per row, by the periodic
    trapezoid rule with node doubling."""
    n = QUAD_START_NODES
    sums = _quad_sum_sq(base, X, Y, _quad_nodes(n))
    values = sums / n
    while True:
        # doubling only adds the midpoints of the current uniform grid
        sums = sums + _quad_sum_sq(base, X, Y, _quad_nodes(n, midpoints=True))
        n *= 2
        new = sums / n
        change = np.abs(new - values) / np.maximum(np.abs(new), 1e-300)
        values = new
        if np.max(change) < rtol:
            break
        if n >= max_nodes:
            if np.max(change) > QUAD_FAIL_RTOL:
                raise QuadratureError(
                    f"quadrature did not settle within {max_nodes} nodes "
                    f"(last relative change {np.max(change):.3e})")
            break
    return values


def _quad_nodes(n: int, midpoints: bool = False) -> np.ndarray:
    offset = 0.5 if midpoints else 0.0
    return -math.pi + 2.0 * math.pi * (np.arange(n) + offset) / n


def _quad_sum_sq(base: NormedSpace, X: np.ndarray, Y: np.ndarray,
                 phi: np.ndarray) -> np.ndarray:
    """Sum over the given nodes of ||x cos phi + y sin phi||^2, per row."""
    c, s = np.cos(phi), np.sin(phi)
    n = len(phi)
    k, d = X.shape
    acc = np.empty(k)
    # chunk over rows to bound the (rows * nodes, dim) intermediate
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // max(n * d, 1))
    for lo in range(0, k, rows_per_chunk):
        hi = min(k, lo + rows_per_chunk)
        Z = X[lo:hi, None, :] * c[None, :, None] + Y[lo:hi, None, :] * s[None, :, None]
        vals = norm_batch(base, Z.reshape(-1, d)).reshape(hi - lo, n)
        acc[lo:hi] = np.sum(vals * vals, axis=1)
    return acc


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------

def direct_sum(left: NormedSpace, right: NormedSpace, mode: str) -> NormedSpace:
    """Combine two spaces.

    mode="complexification": requires identical halves; the result carries the
    averaged L2 norm.  mode="sum": ||(x, y)|| = ||x|| + ||y||.
    """
    if mode == "complexification":
        if not space_equal(left, right):
            raise DescriptorError("complexification mode requires identical halves")
        return NormedSpace(2 * left.dim, ComplexificationOfBase(left))
    if mode == "sum":
        return NormedSpace(left.dim + right.dim, SumNorm(left, right))
    raise DescriptorError(f"unknown direct-sum mode {mode!r}")


# ---------------------------------------------------------------------------
# Recognition of exact fast paths
# ---------------------------------------------------------------------------

def euclidean_gram(space: NormedSpace) -> Optional[np.ndarray]:
    """Gram matrix G with ||x||^2 = x' G x, or None if not Euclidean-like.

    Recognizes Lp(2), WeightedLp(2), explicit quadratic norms, and (recursively)
    complexifications of Euclidean-like bases, whose averaged norm has Gram
    diag(G, G) / 2.
    """
    d = space.norm_desc
    if isinstance(d, Lp) and d.p == 2.0:
        return np.eye(space.dim)
    if isinstance(d, WeightedLp) and d.p == 2.0:
        return np.diag(d.weights)
    if isinstance(d, EuclideanQuadratic):
        return d.gram
    if isinstance(d, ComplexificationOfBase):
        g = euclidean_gram(d.base)
        if g is None:
            return None
        n = d.base.dim
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = g / 2.0
        out[n:, n:] = g / 2.0
        return out
    if isinstance(d, SubspaceNorm):
        g = euclidean_gram(d.ambient)
        if g is None:
            return None
        return d.basis.T @ g @ d.basis
    return None


def _sinusoid_pieces(space: NormedSpace) -> Optional[tuple]:
    """(F, combiner) with ||x|| = sum_j |(F x)_j| ("sum") or max_j |(F x)_j|
    ("max"), or None when the norm is not of that form.

    Recognizes Lp and WeightedLp with p = 1 or p = inf, Polyhedral norms, and
    (recursively) subspaces of these, whose functionals are F @ basis.
    """
    d = space.norm_desc
    if isinstance(d, (Lp, WeightedLp)) and d.p in (1.0, math.inf):
        F = np.eye(space.dim) if isinstance(d, Lp) else np.diag(d.weights)
        return F, "sum" if d.p == 1.0 else "max"
    if isinstance(d, Polyhedral):
        return d.functionals, "max"
    if isinstance(d, SubspaceNorm):
        pieces = _sinusoid_pieces(d.ambient)
        if pieces is None:
            return None
        return pieces[0] @ d.basis, pieces[1]
    return None


def _breakpoint_functionals(space: NormedSpace) -> Optional[np.ndarray]:
    """Rows g such that ||x cos phi + y sin phi|| is analytic in phi between
    the zeros of <g, x cos phi + y sin phi>, or None when no such finite set is
    known (nested complexifications) or none is needed (Euclidean-like bases,
    whose norm is analytic off zero and which keep the trapezoid rule).

    Lp and WeightedLp give the coordinate rows (p = inf: the maximum's rows and
    their crossings), Polyhedral its functionals and their crossings, a sum the
    block stack of both parts (see _part_breakpoints), and a subspace the
    ambient rows times its basis.
    """
    d = space.norm_desc
    if isinstance(d, (Lp, WeightedLp)) and d.p != 2.0:
        if not math.isinf(d.p):
            return np.eye(space.dim)
        return _with_crossings(np.eye(space.dim) if isinstance(d, Lp)
                               else np.diag(d.weights))
    if isinstance(d, Polyhedral):
        return _with_crossings(d.functionals)
    if isinstance(d, SumNorm):
        left, right = _part_breakpoints(d.left), _part_breakpoints(d.right)
        if left is None or right is None:
            return None
        out = np.zeros((len(left) + len(right), space.dim))
        out[:len(left), :d.left.dim] = left
        out[len(left):, d.left.dim:] = right
        return out
    if isinstance(d, SubspaceNorm):
        G = _breakpoint_functionals(d.ambient)
        return None if G is None else G @ d.basis
    return None


def _part_breakpoints(part: NormedSpace) -> Optional[np.ndarray]:
    """Breakpoint rows of one part of a sum.  A Euclidean-like part gets its
    coordinate rows: its norm is analytic except where its whole block
    vanishes, which is a zero of every coordinate."""
    if euclidean_gram(part) is not None:
        return np.eye(part.dim)
    return _breakpoint_functionals(part)


def _with_crossings(F: np.ndarray) -> np.ndarray:
    """F's rows plus f_j + f_l and f_j - f_l for j < l: max_j |<f_j, .>| has
    its kinks where some |<f_j, .>| = |<f_l, .>| or <f_j, .> = 0."""
    j, l = np.triu_indices(len(F), k=1)
    return np.vstack([F, F[j] + F[l], F[j] - F[l]])


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def descriptor_to_dict(d: NormDescriptor) -> dict:
    if isinstance(d, Lp):
        return {"kind": "lp", "p": "inf" if math.isinf(d.p) else d.p}
    if isinstance(d, WeightedLp):
        return {"kind": "wlp", "p": "inf" if math.isinf(d.p) else d.p,
                "weights": d.weights.tolist()}
    if isinstance(d, EuclideanQuadratic):
        return {"kind": "quad", "G": d.gram.tolist()}
    if isinstance(d, Polyhedral):
        return {"kind": "poly", "functionals": d.functionals.tolist()}
    if isinstance(d, ComplexificationOfBase):
        return {"kind": "cplx", "base": space_to_dict(d.base)}
    if isinstance(d, SumNorm):
        return {"kind": "sum", "left": space_to_dict(d.left),
                "right": space_to_dict(d.right)}
    if isinstance(d, SubspaceNorm):
        return {"kind": "sub", "ambient": space_to_dict(d.ambient),
                "basis": d.basis.tolist()}
    raise DescriptorError(f"unknown descriptor {type(d).__name__}")


def descriptor_from_dict(obj: dict) -> NormDescriptor:
    kind = obj.get("kind")
    if kind == "lp":
        return Lp(math.inf if obj["p"] == "inf" else float(obj["p"]))
    if kind == "wlp":
        return WeightedLp(math.inf if obj["p"] == "inf" else float(obj["p"]),
                          np.asarray(obj["weights"], dtype=float))
    if kind == "quad":
        return EuclideanQuadratic(np.asarray(obj["G"], dtype=float))
    if kind == "poly":
        return Polyhedral(np.asarray(obj["functionals"], dtype=float))
    if kind == "cplx":
        return ComplexificationOfBase(space_from_dict(obj["base"]))
    if kind == "sum":
        return SumNorm(space_from_dict(obj["left"]), space_from_dict(obj["right"]))
    if kind == "sub":
        return SubspaceNorm(space_from_dict(obj["ambient"]),
                            np.asarray(obj["basis"], dtype=float))
    raise DescriptorError(f"unknown descriptor kind {kind!r}")


def space_to_dict(space: NormedSpace) -> dict:
    return {"dim": space.dim, "norm": descriptor_to_dict(space.norm_desc)}


def space_from_dict(obj: dict) -> NormedSpace:
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise DescriptorError(f"dimension must be an integer, got {dim!r}")
    return NormedSpace(int(dim), descriptor_from_dict(obj["norm"]))
