"""Finite-dimensional real normed spaces and the averaged complexification norm.

A space is a dimension plus a norm descriptor.  The complexification norm on
X (+) X is the L2 average of || x cos(phi) + y sin(phi) || over a full period.

The bases with an exact form, listed in _Form, have a closed-form mean: for
a Gram G it is (x'Gx + y'Gy) / 2, and where the unit ball is a polytope the
base norm is a sum over parts of a sum or a maximum of |<f_j, .>|, so the
integrand is built from sinusoids |a_j cos(phi) + b_j sin(phi)|.

Every other base has an integrand that is analytic between finitely many
kink angles per row (see _kink_angles).  The period is split there and each
arc is integrated by adaptive Gauss-Kronrod panels, which converge
spectrally on analytic arcs and are bisected only where their error
estimate has not settled.  The open panels of a round are evaluated in
cache-sized blocks whose points are stored coordinate-major, and lp norms
reduce over coordinates in one fixed order, so no value depends on the block
size or on the memory layout of the input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .config import MAX_FLOATS
from .errors import (DescriptorError, DimensionMismatchError, QuadratureError,
                     is_json_int, is_json_number, json_field, unknown_keys)

# Arc quadrature policy (bases without a closed form).  QUAD_RTOL is the
# relative accuracy sought for the mean square and QUAD_MAX_NODES the norm
# evaluations allowed per row.  Each arc is split into Gauss-Kronrod panels,
# and a panel is bisected until the difference of its 21-point Kronrod and
# embedded 10-point Gauss values is below its share of QUAD_RTOL.  A row that
# a split would take past the node budget stops there and keeps its value if
# the summed differences of its open panels are below QUAD_FAIL_RTOL of it;
# otherwise a QuadratureError is raised.
QUAD_MAX_NODES = 4096
QUAD_RTOL = 1e-10
QUAD_FAIL_RTOL = 1e-5

# Elements per intermediate array in the blocked kernels (_panel_integrals,
# _sinusoid_mean_sq, _parts_mean_sq): 65,536 doubles (512 KB) keep a block and
# its norm's few temporaries near a 2 MB L2 cache.  On a 2-core Xeon with 2 MB
# of L2 per core, 16K-262K elements ran within noise; 8K paid per-block
# overhead, and 4M made natural-l3 of paper-all 1.5x slower (a claim since
# decided by proof, with no quadrature).  Of the benchmark's claims, only the
# non-euclidean workload's four general-p rotation claims run the arc
# quadrature (8K-15K norm evaluations each at seeds 1 and 7).
_BLOCK_ELEMENTS = 65_536

# QUADPACK's 21-point Gauss-Kronrod rule dqk21 (Piessens, de Doncker-Kapenga,
# Ueberhuber and Kahaner, 1983) on [-1, 1]: the abscissae x >= 0, of which the
# odd-indexed ones are those of the embedded 10-point Gauss rule, the Kronrod
# weights of the same abscissae and the Gauss weights of the odd-indexed ones.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _gauss_kronrod_table() -> tuple:
    """(nodes, Kronrod weights, Gauss weights) of dqk21 on [0, 1], the nodes
    in increasing order; the Gauss rule takes the odd-indexed nodes."""
    x, wgk, wg = np.array(_XGK), np.array(_WGK), np.array(_WG)
    nodes = np.concatenate([1.0 - x, 1.0 + x[-2::-1]]) / 2.0
    return nodes, np.concatenate([wgk, wgk[-2::-1]]) / 2.0, np.concatenate([wg, wg[::-1]]) / 2.0


_GK_T, _GK_W, _G_W = _gauss_kronrod_table()


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
    """A dimension and a norm descriptor.

    A space is a value (see space_key) and is immutable after construction:
    neither its descriptor nor the descriptor's arrays may be changed.  So the
    data that depends on the space alone is computed on first use and cached
    on the object, with every cached array read-only: how the norm is
    computed exactly (_form), the break rows of its kinks (_breaks), the
    whitening factors (_whitening) and the natural structure on its averaged
    double X_C (structures.natural_i_operator, whose space is X_C).
    """

    dim: int
    norm_desc: NormDescriptor

    def __post_init__(self):
        _check_descriptor(self.dim, self.norm_desc)

    @functools.cached_property
    def _form(self) -> "_Form":
        """The exact forms of the norm (see _Form)."""
        return _closed_form(self)

    @functools.cached_property
    def _whitening(self) -> Optional[tuple]:
        """_whitening_factors of the Gram; None unless Euclidean-like."""
        gram = self._form.gram
        return None if gram is None else _whitening_factors(gram)

    @functools.cached_property
    def _breaks(self) -> Optional[np.ndarray]:
        """_break_rows, read-only."""
        G = _break_rows(self)
        if G is not None:
            G.flags.writeable = False
        return G


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
        _check_finite(d.weights, "weights", DescriptorError)
        if not (d.p >= 1):
            raise DescriptorError("WeightedLp requires p >= 1")
        if not np.all(d.weights > 0):
            raise DescriptorError("weights must be positive")
    elif isinstance(d, EuclideanQuadratic):
        d.gram = np.asarray(d.gram, dtype=float)
        if d.gram.shape != (dim, dim):
            raise DescriptorError("Gram matrix shape must be dim x dim")
        error = _gram_errors(d.gram[None])[0][0]
        if error is not None:
            raise error
    elif isinstance(d, Polyhedral):
        d.functionals = np.asarray(d.functionals, dtype=float)
        if d.functionals.ndim != 2 or d.functionals.shape[1] != dim:
            raise DescriptorError("functionals must be rows of length dim")
        _check_finite(d.functionals, "functionals", DescriptorError)
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
        _check_finite(d.basis, "basis", DescriptorError)
        if np.linalg.matrix_rank(d.basis) < dim:
            raise DescriptorError("basis must have full column rank")
    else:
        raise DescriptorError(f"unknown descriptor {type(d).__name__}")


def _gram_errors(grams: np.ndarray) -> tuple:
    """For each Gram matrix of a stack (k, n, n), the DescriptorError of the
    first check it fails (finite, symmetric, positive definite), or None; and
    the stack with each failing Gram replaced by I, which every kernel takes."""
    eye = np.eye(grams.shape[-1])
    finite = np.all(np.isfinite(grams), axis=(1, 2))
    # a stand-in for the matrices that fail earlier keeps each later check
    # finite: no inf - inf below, and eigvalsh sees finite matrices only
    grams = np.where(finite[:, None, None], grams, eye)
    transposed = np.swapaxes(grams, 1, 2)
    # np.isclose(G, G', atol=1e-12) written out, without its generality
    symmetric = np.all(np.abs(grams - transposed) <= 1e-12 + 1e-5 * np.abs(transposed),
                       axis=(1, 2))
    grams = np.where(symmetric[:, None, None], grams, eye)
    definite = np.linalg.eigvalsh(grams)[:, 0] > 0
    errors = [DescriptorError("Gram matrix must be finite") if not f
              else DescriptorError("Gram matrix must be symmetric") if not s
              else DescriptorError("Gram matrix must be positive definite") if not d
              else None for f, s, d in zip(finite, symmetric, definite)]
    return errors, np.where(definite[:, None, None], grams, eye)


def _whitening_factors(grams: np.ndarray) -> tuple:
    """(L', L'^-1) for the Cholesky factor L L' of a Gram (n, n), or of each
    Gram of a stack (..., n, n): x -> L'x maps the Gram's norm to l2.  Both
    are read-only, and each Gram of a stack gets bitwise its own factors.
    Every Cholesky factorisation of the package is made here."""
    Lt = np.swapaxes(np.linalg.cholesky(grams), -1, -2)
    Lt_inv = np.linalg.inv(Lt)
    Lt.flags.writeable = Lt_inv.flags.writeable = False
    return Lt, Lt_inv


def _check_finite(a: np.ndarray, what: str, error: type) -> None:
    """Raise error("<what> must be finite") unless every entry of a is."""
    if not np.isfinite(a).all():
        raise error(f"{what} must be finite")


def space_equal(a: NormedSpace, b: NormedSpace) -> bool:
    return a is b or space_key(a) == space_key(b)


def space_key(space: NormedSpace) -> tuple:
    """A hashable key; two spaces are equal iff their keys are.

    Descriptor data is finite, so the serialized forms compare exactly; the key
    is the serialized form with every dict and list turned into a tuple (the
    dicts are built with a fixed key order)."""
    return _frozen(space_to_dict(space))


def _frozen(obj):
    if isinstance(obj, dict):
        return tuple((k, _frozen(v)) for k, v in obj.items())
    if isinstance(obj, list):
        return tuple(_frozen(v) for v in obj)
    return obj


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
# The entry points (norm, norm_batch and the complexification norms) evaluate
# with over- and underflow ignored, whatever the caller's numpy error state:
# the kernels find the rows whose digits were lost and evaluate them again.

def _check_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"expected vector of length {dim}, got shape {x.shape}")
    _check_finite(x, "vector entries", DimensionMismatchError)
    return x


def _checked_operator(T, dom, cod, name: str = "T") -> np.ndarray:
    """T as a float matrix, checked finite and, unless dom is None, to map dom to cod."""
    T = np.asarray(T, dtype=float)
    if dom is not None and T.shape != (cod.dim, dom.dim):
        raise DimensionMismatchError(
            f"{name} must be {cod.dim} x {dom.dim}, got {T.shape}")
    _check_finite(T, name, DimensionMismatchError)
    return T


def norm(space: NormedSpace, x) -> float:
    """Evaluate the space's norm at a single vector."""
    x = _check_vector(x, space.dim)
    with np.errstate(over="ignore", under="ignore"):
        return float(_norm_rows(space, x[None, :])[0])


def norm_batch(space: NormedSpace, X: np.ndarray) -> np.ndarray:
    """Evaluate the norm for each row of X (shape (k, dim), finite entries)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != space.dim:
        raise DimensionMismatchError(f"expected batch of dim-{space.dim} rows, got {X.shape}")
    _check_finite(X, "batch entries", DimensionMismatchError)
    with np.errstate(over="ignore", under="ignore"):
        return _norm_rows(space, X)


def _norm_rows(space: NormedSpace, X: np.ndarray) -> np.ndarray:
    """norm_batch without its checks, for the rows the package builds itself
    (the parts of a sum, a subspace's ambient rows, quadrature nodes)."""
    d = space.norm_desc
    if isinstance(d, Lp):
        return _lp_batch(X, d.p, None)
    if isinstance(d, WeightedLp):
        return _lp_batch(X, d.p, d.weights)
    if isinstance(d, EuclideanQuadratic):
        return _gram_norms(d.gram, X)
    if isinstance(d, Polyhedral):
        return np.max(np.abs(X @ d.functionals.T), axis=1)
    if isinstance(d, ComplexificationOfBase):
        n = d.base.dim
        return _complexification_rows(d.base, X[:, :n], X[:, n:])
    if isinstance(d, SumNorm):
        n = d.left.dim
        return _norm_rows(d.left, X[:, :n]) + _norm_rows(d.right, X[:, n:])
    # SubspaceNorm: _check_descriptor refused every other kind
    return _norm_rows(d.ambient, X @ d.basis.T)


_SMALLEST_NORMAL = np.finfo(float).tiny


def _lp_batch(X: np.ndarray, p: float, weights) -> np.ndarray:
    A = np.abs(X)
    if math.isinf(p):
        return _fold_columns(np.maximum, A if weights is None else A * weights)
    # |x|**p under- or overflows for large p or extreme entries.  When no
    # step of the sums did, every row is right as it is.  Otherwise a row
    # whose sum is 0 or subnormal (digits lost), or infinite, is summed again
    # scaled by the power of two near its largest entry, which is exact (as
    # in _gram_norms), and every other row keeps its bits.  Past p ~ 1000 the
    # scaled sum can be lost too (0.5**p underflows); such a row with a
    # nonzero finite entry is summed divided by its largest entry, whose
    # p-th power is then 1
    try:
        with np.errstate(over="raise", under="raise"):
            return _lp_root(_power_sums(A, p, weights), p)
    except FloatingPointError:
        S = _power_sums(A, p, weights)
    out = _lp_root(S, p)
    lost = np.flatnonzero(_lost_sums(S))
    scale = A[lost].max(axis=1)
    _, exp = np.frexp(scale)
    S = _power_sums(np.ldexp(A[lost], -exp[:, None]), p, weights)
    out[lost] = np.ldexp(_lp_root(S, p), exp)
    keep = _lost_sums(S) & (scale > 0.0) & (scale < np.inf)
    lost, scale = lost[keep], scale[keep]
    out[lost] = _lp_root(_power_sums(A[lost] / scale[:, None], p, weights), p) * scale
    return out


def _lost_sums(S: np.ndarray) -> np.ndarray:
    """Where a power sum lost its digits: 0 or subnormal, or infinite."""
    return ~(S >= _SMALLEST_NORMAL) | (S == np.inf)


def _power_sums(A: np.ndarray, p: float, weights) -> np.ndarray:
    """sum_i w_i |x_i|**p (p finite) of each row of A = |X|."""
    P = A if p == 1.0 else A * A if p == 2.0 else A ** p
    if weights is not None:
        P = P * weights
    return _fold_columns(np.add, P)


def _lp_root(S: np.ndarray, p: float) -> np.ndarray:
    return S if p == 1.0 else np.sqrt(S) if p == 2.0 else S ** (1.0 / p)


def _fold_columns(ufunc: np.ufunc, A: np.ndarray) -> np.ndarray:
    """ufunc folded over the columns of A, left to right, per row.

    The order is fixed, so a row's value does not depend on the memory layout
    of the batch (numpy's reduction over a row of C-order input sums eight
    entries or more pairwise, and BLAS picks its own order), and on
    coordinate-major input every step is one contiguous pass over a column.
    """
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        ufunc(out, A[:, j], out=out)
    return out


# ---------------------------------------------------------------------------
# Complexification norm: closed forms, arc quadrature otherwise
# ---------------------------------------------------------------------------

def complexification_norm(base: NormedSpace, x, y) -> float:
    """Averaged norm ( mean over phi of ||x cos phi + y sin phi||^2 )^(1/2)."""
    x = _check_vector(x, base.dim)
    y = _check_vector(y, base.dim)
    with np.errstate(over="ignore", under="ignore"):
        return float(_complexification_rows(base, x[None, :], y[None, :])[0])


def complexification_norm_batch(base: NormedSpace, X: np.ndarray,
                                Y: np.ndarray) -> np.ndarray:
    """Batched complexification norm of the row pairs of X, Y (k, base.dim),
    whose entries must be finite.

    A base with a gram or with pieces (see _Form, which lists the kinds) is
    evaluated exactly: a Gram by _gram_complexification_norms, a single part
    by _sinusoid_mean_sq, several (an l1-sum) arc by arc by _parts_mean_sq.
    Every other base is integrated by quadrature on the arcs between the kink
    angles of each row (`_kink_angles`).  Either way rotating a row moves its
    arcs with it, and rotation invariance holds to a few ulps at every angle.
    QUAD_MAX_NODES bounds the norm evaluations per row of the quadrature.

    The norm is homogeneous, so each row pair is first scaled by a power of
    two near its largest entry and the value scaled back: nothing overflows or
    underflows in between, and the scaling itself is exact.  A zero pair is
    scaled by 2^0 and every kernel gives it +0.0, so all rows take one path.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[1] != base.dim:
        raise DimensionMismatchError("X, Y must both be (k, base.dim)")
    _check_finite(X, "batch entries", DimensionMismatchError)
    _check_finite(Y, "batch entries", DimensionMismatchError)
    with np.errstate(over="ignore", under="ignore"):
        return _complexification_rows(base, X, Y)


def _complexification_rows(base: NormedSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """complexification_norm_batch without its checks (see _norm_rows)."""
    form = base._form
    if form.gram is not None:
        return _gram_complexification_norms(form.gram, X, Y)
    Xn, Yn, exp = _scaled_pairs(X, Y)
    if form.pieces is not None and len(form.pieces) == 1:
        mean_sq = _sinusoid_mean_sq(Xn, Yn, *form.pieces[0])
    elif form.pieces is not None:
        mean_sq = _parts_mean_sq(Xn, Yn, form.pieces, _kink_angles(base, Xn, Yn))
    else:
        mean_sq = _arc_mean_sq(base, Xn, Yn, _kink_angles(base, Xn, Yn))
    return np.ldexp(np.sqrt(np.maximum(mean_sq, 0.0)), exp)


def _scaled_pairs(X: np.ndarray, Y: np.ndarray) -> tuple:
    """(X / 2^e, Y / 2^e, e) for the row pairs (x, y) of X, Y (..., n), 2^e the
    power of two near each pair's largest entry (e = 0 for a zero pair)."""
    _, exp = np.frexp(np.maximum(np.max(np.abs(X), axis=-1), np.max(np.abs(Y), axis=-1)))
    return np.ldexp(X, -exp[..., None]), np.ldexp(Y, -exp[..., None]), exp


def _quadratic_forms(grams: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x'Gx for each row x of X (..., r, n) under one Gram G (n, n), or under
    its item's Gram of a stack (..., n, n).  Every Gram norm is evaluated
    here.  With r >= 2 rows per item, a stack of items gives each item
    bitwise the value of the item alone (a test checks it); with r = 1, or
    with "ki,kij,kj->k", about 1% of the values differ in the last bit."""
    return np.einsum("...ri,...ij,...rj->...r", X, grams, X)


def _gram_norms(grams: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sqrt(x'Gx) for each row x of X (..., r, n); grams as for _quadratic_forms.
    A row whose x'Gx over- or underflowed (not finite, or below the smallest
    normal) is evaluated again scaled by the power of two near its largest
    entry (a zero row by 2^0, to its own value); every other keeps its bits."""
    q = _quadratic_forms(grams, X)
    out = np.sqrt(np.maximum(q, 0.0))
    lost = ~(q < np.inf) | (q < _SMALLEST_NORMAL)
    if lost.any():
        _, exp = np.frexp(np.max(np.abs(X), axis=-1))
        q = _quadratic_forms(grams, np.ldexp(X, -exp[..., None]))
        out = np.where(lost, np.ldexp(np.sqrt(np.maximum(q, 0.0)), exp), out)
    return out


def _gram_complexification_norms(grams: np.ndarray, X: np.ndarray,
                                 Y: np.ndarray) -> np.ndarray:
    """The averaged norm sqrt((x'Gx + y'Gy) / 2) of each row pair (x, y) of
    X, Y (..., n), under one Gram G (n, n) or under its pair's Gram of a
    stack (..., n, n); x and y enter _quadratic_forms as the two rows of one
    item."""
    Xn, Yn, exp = _scaled_pairs(X, Y)
    q = _quadratic_forms(grams, np.stack([Xn, Yn], axis=-2))
    return np.ldexp(np.sqrt(np.maximum((q[..., 0] + q[..., 1]) / 2.0, 0.0)), exp)


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
    # block over rows to bound the (rows, m, 2m) pairwise intermediates; an
    # empty batch is one empty block
    rows_per_block = max(1, _BLOCK_ELEMENTS // (2 * m * m))
    return np.concatenate([mean_sq(A[lo:lo + rows_per_block], B[lo:lo + rows_per_block])
                           for lo in range(0, max(len(A), 1), rows_per_block)])


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


def _arc_mean_sq(base: NormedSpace, X: np.ndarray, Y: np.ndarray,
                 kinks: np.ndarray) -> np.ndarray:
    """Mean over phi of ||x cos phi + y sin phi||^2, per row, integrated arc by
    arc between the row's kink angles in [0, pi) (nan: no kink).

    The integrand has period pi and is analytic inside each arc.  Each arc is
    mapped onto t in [0, 1] by the smoothstep substitution (see
    _panel_integrals) and starts as one panel there.  A panel is accepted once
    its Kronrod and Gauss values differ by at most its share of the period
    (its arc's width times its length in t, over pi) of QUAD_RTOL times the
    row's current integral, so the accepted differences of a row add up to
    at most QUAD_RTOL of it; every other panel is bisected, and the open
    panels of all rows are evaluated together, one round at a time.  A row
    whose splits would take it past QUAD_MAX_NODES evaluations stops before
    them with every open panel's Kronrod value; the open panels' summed
    differences must then be below QUAD_FAIL_RTOL of the row's integral,
    otherwise a QuadratureError is raised.
    """
    k = len(X)
    row, start, width = _arcs(kinks)
    # the open panels: their arc, and their left end and length in t
    arc, left, size = np.arange(len(row)), np.zeros(len(row)), np.ones(len(row))
    used = len(_GK_T) * np.bincount(row, minlength=k)
    done = np.zeros(k)  # the accepted panels' sum, per row
    while arc.size:
        r = row[arc]
        K, G = _panel_integrals(base, X[r], Y[r], start[arc], width[arc], left, size)
        total = done + np.bincount(r, weights=K, minlength=k)
        error = np.abs(K - G)
        ok = error <= QUAD_RTOL / np.pi * total[r] * width[arc] * size
        split = ~ok
        # a row stops before the splits that would pass the node budget
        used += 2 * len(_GK_T) * np.bincount(r[split], minlength=k)
        stop = (used > QUAD_MAX_NODES)[r] & split
        if np.any(stop):
            unsettled = np.bincount(r[stop], weights=error[stop], minlength=k)
            worst = float(np.max(unsettled / total))
            if worst > QUAD_FAIL_RTOL:
                raise QuadratureError(
                    f"quadrature did not settle within {QUAD_MAX_NODES} nodes "
                    f"(estimated relative error {worst:.3e})")
            ok |= stop
            split &= ~stop
        done += np.bincount(r[ok], weights=K[ok], minlength=k)
        # each split panel becomes its two halves, in order along the arc
        half = size[split] / 2.0
        arc = np.repeat(arc[split], 2)
        left = np.column_stack([left[split], left[split] + half]).ravel()
        size = np.repeat(half, 2)
    return done / np.pi


def _arcs(kinks: np.ndarray) -> tuple:
    """(row, start, width) of each nonempty arc of [0, pi) between a row's
    kink angles (nan: no kink), the arcs of each row in order of angle."""
    # a missing kink repeats the row's largest one, which makes an empty arc;
    # a row with no kink at all gets one at 0, so its single arc is [0, pi)
    largest = np.fmax.reduce(kinks, axis=1, initial=0.0)
    ends = np.sort(np.column_stack([np.where(np.isnan(kinks), largest[:, None], kinks),
                                    largest]), axis=1)
    widths = np.diff(ends, axis=1, append=ends[:, :1] + np.pi)
    row, col = np.nonzero(widths > 0.0)
    return row, ends[row, col], widths[row, col]


def _parts_mean_sq(X: np.ndarray, Y: np.ndarray, parts: tuple,
                   kinks: np.ndarray) -> np.ndarray:
    """Exact mean over phi of ||x cos phi + y sin phi||^2, per row, for the
    base norm sum over parts (F, combiner) of sum_j |(F .)_j| ("sum") or
    max_j |(F .)_j| ("max"), given the row's kink angles (_kink_angles of a
    base with break rows).

    Between two kinks every P_j . u keeps its sign and every maximum its
    maximizer (P_j = (a_j, b_j) as in _sinusoid_mean_sq), so the norm is
    f = R . u for one R per arc: each part adds sign(P_j . u) P_j of its
    active functionals (all of a "sum", the maximizer of a "max"), read at
    the arc's midpoint.  Over an arc of width w, f^2 integrates to
    |R|^2 w / 2 less half the change of f f' across the arc.  Around the
    period these changes meet at the kinks, where f is continuous and f'
    jumps, and a kink from R to R' adds f (f'_after - f'_before) / 2, which
    is R x R' / 2 (the last arc of a row goes on to minus its first R: the
    period is pi).  So no angle enters but the widths, and every other term
    turns with the row.  Both sums are compensated (_compensated_sum):
    rotating a row reorders its terms, which must not move its value.
    """
    row, start, width = _arcs(kinks)
    projections = [(X @ F.T, Y @ F.T, combiner) for F, combiner in parts]
    R = np.empty((2, len(row)))
    # block over arcs to bound the (arcs, functionals) intermediates
    per_block = max(1, _BLOCK_ELEMENTS // sum(len(F) for F, _ in parts))
    for lo in range(0, len(row), per_block):
        arcs = slice(lo, lo + per_block)
        mid = start[arcs] + width[arcs] / 2.0
        c, s = np.cos(mid)[:, None], np.sin(mid)[:, None]
        signed = []
        for A, B, combiner in projections:
            a, b = A[row[arcs]], B[row[arcs]]
            value = a * c + b * s
            if combiner == "max":
                pick = np.arange(len(value)), np.argmax(np.abs(value), axis=1)
                value, a, b = (v[pick][:, None] for v in (value, a, b))
            sign = np.sign(value)
            signed.append((sign * a, sign * b))
        for i, columns in enumerate(zip(*signed)):
            R[i, arcs] = _compensated_sum(np.hstack(columns))
    # each arc's successor in its row: the next arc, or the row's first
    # turned by pi
    first = np.searchsorted(row, row)
    last = np.ones(len(row), dtype=bool)
    last[:-1] = row[1:] != row[:-1]
    after = np.where(last, first, np.arange(1, len(row) + 1))
    Ra, Rb = R
    Sa, Sb = R[:, after] * np.where(last, -1.0, 1.0)
    terms = (Ra * Ra + Rb * Rb) * width + (Ra * Sb - Rb * Sa)
    position = np.arange(len(row)) - first
    table = np.zeros((len(X), np.max(position, initial=0) + 1))
    table[row, position] = terms
    return _compensated_sum(table) / (2.0 * np.pi)


def _compensated_sum(T: np.ndarray) -> np.ndarray:
    """The sum of each row of T (k, m): the columns are added left to right,
    and the rounding error of each addition (Knuth's TwoSum) is added back at
    the end, so the sum is good to about an ulp in any order of its terms."""
    total = T[:, 0].copy()
    error = np.zeros(len(T))
    for j in range(1, T.shape[1]):
        term = T[:, j]
        new = total + term
        part = new - total
        error += (total - (new - part)) + (term - part)
        total = new
    return total + error


def _panel_integrals(base: NormedSpace, X: np.ndarray, Y: np.ndarray, start: np.ndarray,
                     width: np.ndarray, left: np.ndarray, size: np.ndarray) -> tuple:
    """(Kronrod, Gauss) values, per row, of the integral of
    ||x cos phi + y sin phi||^2 over the panel [left, left + size] of t in
    [0, 1], with phi = start + width (3t^2 - 2t^3).

    The substitution's derivative 6t(1 - t) vanishes at both ends of the arc,
    which turns an endpoint singularity |phi - phi_0|^p of the integrand into
    t^(2p + 1).  Each panel's sums run over its own nodes in one fixed order,
    so no value depends on the block size.
    """
    n = len(_GK_T)
    k, d = X.shape
    kronrod, gauss = np.empty(k), np.empty(k)
    per_block = max(1, _BLOCK_ELEMENTS // (n * d))
    for lo in range(0, k, per_block):
        hi = min(k, lo + per_block)
        t = size[lo:hi, None] * _GK_T
        t += left[lo:hi, None]
        phi = t * t * (3.0 - 2.0 * t)
        phi *= width[lo:hi, None]
        phi += start[lo:hi, None]
        c = np.cos(phi)
        sn = np.sin(phi, out=phi)
        # one coordinate at a time into its own contiguous column, so that the
        # norm reduces over coordinates column by column (see _fold_columns)
        Z = np.empty(((hi - lo) * n, d), order="F")
        for j in range(d):
            column = Z[:, j].reshape(hi - lo, n)
            np.multiply(X[lo:hi, j, None], c, out=column)
            column += Y[lo:hi, j, None] * sn
        vals = _norm_rows(base, Z).reshape(hi - lo, n)
        f = vals * vals
        f *= 6.0 * t * (1.0 - t)
        scale = width[lo:hi] * size[lo:hi]
        kronrod[lo:hi] = scale * np.sum(f * _GK_W, axis=1)
        gauss[lo:hi] = scale * np.sum(f[:, 1::2] * _G_W, axis=1)
    return kronrod, gauss


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------

def direct_sum(left: NormedSpace, right: NormedSpace) -> NormedSpace:
    """The l1-sum: ||(x, y)|| = ||x|| + ||y||.  X's averaged double X_C is
    structures.natural_i_operator(X).space."""
    return NormedSpace(left.dim + right.dim, SumNorm(left, right))


def block_diag2(T: np.ndarray) -> np.ndarray:
    """T (+) T: (x1, x2) -> (T x1, T x2); of each matrix of a stack
    (..., m, n).  With T = G / 2 it is the Gram of the complexification of a
    base with Gram G."""
    *lead, m, n = T.shape
    out = np.zeros((*lead, 2 * m, 2 * n))
    out[..., :m, :n] = T
    out[..., m:, n:] = T
    return out


# ---------------------------------------------------------------------------
# Recognition of exact fast paths
# ---------------------------------------------------------------------------

def euclidean_gram(space: NormedSpace) -> Optional[np.ndarray]:
    """Gram matrix G with ||x||^2 = x' G x, or None if not Euclidean-like."""
    return space._form.gram


class _Form(NamedTuple):
    """How a space's norm is computed exactly; each entry is None when the
    norm has no such form.  complexification_norm_batch is exact on every
    base with a gram or pieces, and this is the one list of those bases.

    gram: G with ||x||^2 = x'Gx.  Lp(2), WeightedLp(2) and explicit quadratic
    norms; the complexification of a base with Gram G, whose averaged norm
    has Gram diag(G, G) / 2; a subspace, basis' G basis; and every line.
    pieces: a tuple of parts (F, combiner) with ||x|| the sum over the parts
    of sum_j |(F x)_j| ("sum") or max_j |(F x)_j| ("max"), for norms whose
    unit ball is a polytope.  Lp and WeightedLp with p = 1 or p = inf and
    Polyhedral norms have one part; an l1-sum of two spaces with pieces has
    the parts of both, each F zero-padded onto its block; a subspace has its
    ambient space's parts, each F mapped to F @ basis; and every line.
    A line's norm is c|x|, c its norm at 1: a line whose kind gives it no
    Gram or no pieces gets [[c^2]] or the one part ([[c]], "sum"); so an
    l1-sum of lines is a weighted l1 plane.
    """

    gram: Optional[np.ndarray]
    pieces: Optional[tuple]


def _closed_form(space: NormedSpace) -> _Form:
    """The _Form of a space, from the cached forms of its parts.  Every array
    of it is read-only; a descriptor's own array enters as a view, so the
    descriptor's stays as it is."""
    d, n = space.norm_desc, space.dim
    gram = pieces = None
    if isinstance(d, (Lp, WeightedLp)):
        F = np.eye(n) if isinstance(d, Lp) else np.diag(d.weights)
        if d.p == 2.0:
            gram = F
        elif d.p in (1.0, math.inf):
            pieces = ((F, "sum" if d.p == 1.0 else "max"),)
    elif isinstance(d, EuclideanQuadratic):
        gram = d.gram.view()
    elif isinstance(d, Polyhedral):
        pieces = ((d.functionals.view(), "max"),)
    elif isinstance(d, ComplexificationOfBase):
        g = d.base._form.gram
        gram = None if g is None else block_diag2(g / 2.0)
    elif isinstance(d, SumNorm):
        left, right, m = d.left._form, d.right._form, d.left.dim
        if left.pieces is not None and right.pieces is not None:
            pieces = (tuple((_on_block(F, 0, n), c) for F, c in left.pieces)
                      + tuple((_on_block(F, m, n), c) for F, c in right.pieces))
    else:  # SubspaceNorm
        amb = d.ambient._form
        gram = None if amb.gram is None else d.basis.T @ amb.gram @ d.basis
        pieces = None if amb.pieces is None else tuple((F @ d.basis, c)
                                                       for F, c in amb.pieces)
    if n == 1:  # every norm on a line is c|x|, c its norm at 1
        c = norm_batch(space, np.ones((1, 1)))[None]
        gram = c ** 2 if gram is None else gram
        pieces = pieces or ((c, "sum"),)
    for a in (gram, *(F for F, _ in pieces or ())):
        if a is not None:
            a.flags.writeable = False
    return _Form(gram, pieces)


def _break_rows(space: NormedSpace) -> Optional[np.ndarray]:
    """Rows g such that ||x cos phi + y sin phi|| is analytic in phi between
    the zeros of <g, x cos phi + y sin phi>, or None.  A Euclidean-like norm
    gives the coordinate rows: it is analytic except where the whole vector
    vanishes, which is a zero of every coordinate.  Lp and WeightedLp give the
    coordinate rows too (p = inf: the maximum's rows and their crossings),
    Polyhedral its functionals and their crossings, a sum the block stack of
    both parts, and a subspace the ambient rows times its basis.  Nested
    complexifications, and sums or subspaces with such a part, have none.
    Rows of more than MAX_FLOATS floats are refused before they are built."""
    d, n = space.norm_desc, space.dim
    if isinstance(d, SubspaceNorm) and d.ambient._form.gram is None:
        G = d.ambient._breaks
        return None if G is None else G @ d.basis
    if isinstance(d, ComplexificationOfBase) and d.base._form.gram is None:
        return None
    if isinstance(d, SumNorm):
        left, right = d.left._breaks, d.right._breaks
        if left is None or right is None:
            return None
        _check_break_rows(n, len(left) + len(right))
        return np.vstack([_on_block(left, 0, n), _on_block(right, d.left.dim, n)])
    if isinstance(d, Polyhedral) or (isinstance(d, (Lp, WeightedLp)) and math.isinf(d.p)):
        F = (d.functionals if isinstance(d, Polyhedral)
             else np.eye(n) if isinstance(d, Lp) else np.diag(d.weights))
        # max_j |<f_j, .>| has its kinks where some <f_j, .> = 0 or
        # |<f_j, .>| = |<f_l, .>|: F's rows, and f_j + f_l and f_j - f_l, j < l
        _check_break_rows(n, len(F) ** 2)
        j, l = np.triu_indices(len(F), k=1)
        return np.vstack([F, F[j] + F[l], F[j] - F[l]])
    _check_break_rows(n, n)
    return np.eye(n)


def _check_break_rows(n: int, rows: int) -> None:
    if rows * n > MAX_FLOATS:
        raise DescriptorError(f"the kinks of a space of dimension {n} need {rows} break "
                              f"rows, more than 2**{MAX_FLOATS.bit_length() - 1} floats")


def _on_block(F: np.ndarray, start: int, n: int) -> np.ndarray:
    """The rows of F zero-padded to length n, F on the columns from start."""
    out = np.zeros((len(F), n))
    out[:, start:start + F.shape[1]] = F
    return out


def _kink_angles(space: NormedSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per row, angles in [0, pi) between which ||x cos phi + y sin phi|| is
    analytic in phi, one column per candidate kink (nan: none there).

    With break rows (_break_rows) these are their zeros along the row.  A
    sum takes the angles of both parts, each on its own block, and a subspace
    those of its ambient space.  For the complexification of a base with
    break rows g_k, the inner kinks along psi are the zeros of
    P_k . (cos psi, sin psi) with P_k = (<g_k, u>, <g_k, v>), where
    (u, v) = x cos phi + y sin phi; the mean over psi stops being analytic in
    phi where two inner kinks collide, at the zeros of P_k x P_l, and where
    some P_k vanishes.  P_k x P_l vanishes there too, unless every P_l stays
    parallel to P_k (rows in a complex line, such as (x, 0), (y, 0)), so each
    P_k also adds the angle where |P_k| is least.  A base without break rows
    gives no angles: the whole period is one arc.
    """
    d = space.norm_desc
    G = space._breaks
    if G is not None:
        A, B = X @ G.T, Y @ G.T
        # a functional that vanishes on the whole row has no zero there
        return np.where((A == 0.0) & (B == 0.0), np.nan, np.mod(np.arctan2(A, -B), np.pi))
    if isinstance(d, SumNorm):
        n = d.left.dim
        return np.hstack([_kink_angles(d.left, X[:, :n], Y[:, :n]),
                          _kink_angles(d.right, X[:, n:], Y[:, n:])])
    if isinstance(d, SubspaceNorm):
        return _kink_angles(d.ambient, X @ d.basis.T, Y @ d.basis.T)
    G = d.base._breaks
    if G is None:
        return np.empty((len(X), 0))
    n = d.base.dim
    # P_k(phi) = (a_k cos + b_k sin, c_k cos + e_k sin)
    a, b = X[:, :n] @ G.T, Y[:, :n] @ G.T
    c, e = X[:, n:] @ G.T, Y[:, n:] @ G.T
    k, l = np.triu_indices(G.shape[0], k=1)
    # P_k x P_l = cc cos^2 + cs cos sin + ss sin^2
    cc = a[:, k] * c[:, l] - c[:, k] * a[:, l]
    ss = b[:, k] * e[:, l] - e[:, k] * b[:, l]
    cs = (a[:, k] * e[:, l] - e[:, k] * a[:, l]) + (b[:, k] * c[:, l] - c[:, k] * b[:, l])
    # = ((cc + ss) + (cc - ss) cos 2 phi + cs sin 2 phi) / 2, zero where
    # cos(2 phi - centre) = -(cc + ss) / r; a product that vanishes
    # identically (0 / 0) or never (|ratio| > 1) gives nan
    r = np.hypot(cc - ss, cs)
    centre = np.arctan2(cs, cc - ss)
    with np.errstate(invalid="ignore", divide="ignore"):
        half = np.arccos(-(cc + ss) / r)
    # 2 |P_k|^2 = const + (a^2 + c^2 - b^2 - e^2) cos 2 phi + 2 (ab + ce) sin 2 phi
    least = (np.arctan2(2.0 * (a * b + c * e), a * a + c * c - b * b - e * e) + np.pi) / 2.0
    return np.mod(np.hstack([(centre - half) / 2.0, (centre + half) / 2.0, least]), np.pi)


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def space_to_dict(space: NormedSpace) -> dict:
    return {"dim": space.dim, "norm": descriptor_to_dict(space.norm_desc)}


def space_from_dict(obj: dict) -> NormedSpace:
    dim = json_field(obj, "dim", "a space")
    if unknown := unknown_keys(obj, {"dim", "norm"}):
        raise DescriptorError(f"a space has unknown key(s) {unknown}")
    if not is_json_int(dim):
        raise DescriptorError(f"dimension must be an integer, got {dim!r}")
    return NormedSpace(int(dim), descriptor_from_dict(json_field(obj, "norm", "a space")))


def _number(v, key: str) -> float:
    if not is_json_number(v):
        raise DescriptorError(f"{key}: {v!r} is not a JSON number")
    return float(v)


def _numbers(v, key: str) -> np.ndarray:
    """A JSON array of numbers, or of rows of them, as floats; a ragged
    array's rows are entries that are not numbers."""
    for x in np.array(v, dtype=object).ravel():
        _number(x, key)
    return np.asarray(v, dtype=float)


_P = (lambda p: "inf" if math.isinf(p) else p,
      lambda v, key: math.inf if v == "inf" else _number(v, key))
_ARRAY = (np.ndarray.tolist, _numbers)
_SPACE = (space_to_dict, lambda v, key: space_from_dict(v))
# kind -> (type, [(JSON key, attribute, (to JSON, from JSON(value, key)))]), in field order
_SERIAL = {"lp": (Lp, [("p", "p", _P)]),
           "wlp": (WeightedLp, [("p", "p", _P), ("weights", "weights", _ARRAY)]),
           "quad": (EuclideanQuadratic, [("G", "gram", _ARRAY)]),
           "poly": (Polyhedral, [("functionals", "functionals", _ARRAY)]),
           "cplx": (ComplexificationOfBase, [("base", "base", _SPACE)]),
           "sum": (SumNorm, [("left", "left", _SPACE), ("right", "right", _SPACE)]),
           "sub": (SubspaceNorm, [("ambient", "ambient", _SPACE), ("basis", "basis", _ARRAY)])}


def descriptor_to_dict(d: NormDescriptor) -> dict:
    for kind, (cls, fields) in _SERIAL.items():
        if isinstance(d, cls):
            return {"kind": kind, **{key: to(getattr(d, attr)) for key, attr, (to, _) in fields}}
    raise DescriptorError(f"unknown descriptor {type(d).__name__}")


def descriptor_from_dict(obj: dict) -> NormDescriptor:
    kind = json_field(obj, "kind", "a norm")
    if not isinstance(kind, str) or kind not in _SERIAL:
        raise DescriptorError(f"unknown descriptor kind {kind!r}")
    cls, fields = _SERIAL[kind]
    if unknown := unknown_keys(obj, {"kind", *(key for key, _, _ in fields)}):
        raise DescriptorError(f"{kind} norm has unknown key(s) {unknown}")
    return cls(*(back(json_field(obj, key, f"{kind} norm"), key) for key, _, (_, back) in fields))
