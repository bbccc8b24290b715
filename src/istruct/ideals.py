"""Membership oracles for operator classes, desk-scale ideal norms, and the
real <-> complex transforms (doubling, forgetting, conjugating).

`decide_real(oracle, corpus)` and `decide_complex(oracle, corpus)` decide a
whole corpus in one call.  They group the operators by (domain, codomain),
build what depends only on the two spaces once per group (the Gram factors,
the complexified spaces and their natural i-operators), and run the norm and
rank kernels on each group's stacked matrices.  Each public call groups its
corpus once, and its later decisions (conjugate, square, unfolded) run on
those groups.  A shape error names the first misshapen operator in corpus
order.

Threshold-style oracles are decision instruments for exercising the
transforms; they are not operator ideals in the closed-under-addition sense,
and every report produced here says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DescriptorError, DimensionMismatchError, first_errors
from .morphisms import (RespectingOperator, _respect_residuals,
                        _singular_values, _split_matrix, block_diag2)
from .report import VERIFIED, VIOLATED, VerificationReport
from .spaces import NormedSpace, direct_sum, space_key
from .structures import _split_on, natural_i_operator

THRESHOLD_ATOL = 1e-9  # norm thresholds accept up to bound + THRESHOLD_ATOL

OPERATOR_NORM = "operator_norm"
HILBERT_SCHMIDT = "hilbert_schmidt"
TRACE_NORM = "trace_norm"


@dataclass(eq=False)
class RealOperator:
    """A plain real operator between two normed spaces."""

    matrix: np.ndarray
    domain: NormedSpace
    codomain: NormedSpace


# ---------------------------------------------------------------------------
# Ideal norms (Euclidean-normed spaces only)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class IdealNormValue:
    functional: str
    value: float
    exact: bool


def ideal_norm(functional: str, T, dom: NormedSpace, cod: NormedSpace) -> IdealNormValue:
    """operator_norm, hilbert_schmidt, or trace_norm of T : dom -> cod."""
    T = np.asarray(T, dtype=float)
    if T.shape != (cod.dim, dom.dim):
        raise DimensionMismatchError(
            f"T must be {cod.dim} x {dom.dim}, got {T.shape}")
    return IdealNormValue(functional, float(ideal_norms(functional, T, dom, cod)),
                          True)


def ideal_norms(functional: str, Ts: np.ndarray, dom: NormedSpace,
                cod: NormedSpace) -> np.ndarray:
    """The ideal norm of each matrix of a stack Ts (..., cod.dim, dom.dim), from
    one stacked SVD; each value is bitwise that of ideal_norm."""
    sv = _singular_values(Ts, dom, cod)
    if sv is None:
        raise DescriptorError(
            "ideal norms require Euclidean-like norms on both spaces")
    if functional == OPERATOR_NORM:
        return sv[..., 0]
    if functional == HILBERT_SCHMIDT:
        return np.sqrt(np.sum(sv * sv, axis=-1))
    if functional == TRACE_NORM:
        return np.sum(sv, axis=-1)
    raise DescriptorError(f"unknown ideal-norm functional {functional!r}")


# ---------------------------------------------------------------------------
# Oracle descriptors
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NormThreshold:
    functional: str
    bound: float


@dataclass(eq=False)
class RankThreshold:
    r: int


@dataclass(eq=False)
class MatrixPredicate:
    """Named pure predicate.  Real kind receives (T, dom, cod); complex kind
    additionally receives the structure matrices (T, A, B, dom, cod)."""

    label: str
    fn: Callable


@dataclass(eq=False)
class AllOperators:
    pass


@dataclass(eq=False)
class NoOperators:
    pass


@dataclass(eq=False)
class ComplexifiedReal:
    """Complex oracle evaluating a real oracle on the underlying matrix."""

    base: "IdealOracle"


@dataclass(eq=False)
class RealFormOf:
    """Real oracle evaluating a complex oracle on the doubled operator."""

    base: "IdealOracle"


@dataclass(eq=False)
class ConjugateOf:
    base: "IdealOracle"


Descriptor = Union[NormThreshold, RankThreshold, MatrixPredicate, AllOperators,
                   NoOperators, ComplexifiedReal, RealFormOf, ConjugateOf]


@dataclass(eq=False)
class IdealOracle:
    kind: str  # "real" | "complex"
    descriptor: Descriptor

    def __post_init__(self):
        if self.kind not in ("real", "complex"):
            raise DescriptorError(f"oracle kind must be real or complex, got {self.kind!r}")


def decide_real(oracle: IdealOracle, corpus: Sequence[RealOperator]) -> np.ndarray:
    """Membership of each RealOperator of the corpus, as a bool array in
    corpus order (empty for an empty corpus)."""
    _descriptor(oracle, "real")
    return _members(oracle, _groups((op.domain, op.codomain, op.matrix)
                                    for op in corpus))


def decide_complex(oracle: IdealOracle,
                   corpus: Sequence[RespectingOperator]) -> np.ndarray:
    """Membership of each [T, A, B] of the corpus, as a bool array in corpus
    order (empty for an empty corpus)."""
    return _grouped(oracle, corpus)[1]


def _grouped(oracle: IdealOracle, corpus: Sequence[RespectingOperator]) -> tuple:
    """The groups of a corpus of [T, A, B], and a complex oracle's decisions."""
    _descriptor(oracle, "complex")
    groups = _groups((op.domain.space, op.codomain.space, op.matrix, op.domain.A,
                      op.codomain.A) for op in corpus)
    return groups, _members(oracle, groups)


def _groups(rows) -> list:
    """(indices, dom, cod, Ts, *structure stacks) for each group of a corpus
    given as rows (dom, cod, T, *structure matrices), under space equality of
    (dom, cod) and in order of first appearance; Ts stacks the group's T as
    floats (k, m, n).  The one pass that keys the spaces checks each shape, so
    a shape error names the first misshapen operator in corpus order."""
    keys: dict = {}  # id -> key, computed once for a space shared by rows
    groups: dict = {}
    for i, (dom, cod, T, *structures) in enumerate(rows):
        for space in (dom, cod):
            if id(space) not in keys:
                keys[id(space)] = space_key(space)
        T = np.asarray(T, dtype=float)
        if T.shape != (cod.dim, dom.dim):
            raise DimensionMismatchError(
                f"T must be {cod.dim} x {dom.dim}, got {T.shape}")
        group = groups.setdefault((keys[id(dom)], keys[id(cod)]), (dom, cod, [], []))
        group[2].append(i)
        group[3].append((T, *structures))
    return [(idx, dom, cod, *map(np.stack, zip(*items)))
            for dom, cod, idx, items in groups.values()]


def _members(oracle: IdealOracle, groups: list) -> np.ndarray:
    """Membership of each operator of a grouped corpus, in corpus order."""
    out = np.zeros(sum(len(g[0]) for g in groups), dtype=bool)
    for idx, dom, cod, *stacks in groups:
        out[idx] = _decide(oracle, dom, cod, *stacks)
    return out


def _descriptor(oracle: IdealOracle, kind: str) -> Descriptor:
    if oracle.kind != kind:
        raise DescriptorError(f"expected a {kind}-kind oracle")
    return oracle.descriptor


def _decide(oracle: IdealOracle, dom: NormedSpace, cod: NormedSpace,
            Ts: np.ndarray, As: Optional[np.ndarray] = None,
            Bs: Optional[np.ndarray] = None) -> np.ndarray:
    """Membership of the k operators Ts (k, m, n) from dom to cod.  A
    real-kind oracle gets As = Bs = None; a complex-kind one the stacks of
    the operators' domain and codomain structure matrices."""
    kind = "real" if As is None else "complex"
    d = _descriptor(oracle, kind)
    if isinstance(d, (AllOperators, NoOperators)):
        return np.full(len(Ts), isinstance(d, AllOperators))
    if isinstance(d, NormThreshold):
        return ideal_norms(d.functional, Ts, dom, cod) <= d.bound + THRESHOLD_ATOL
    if isinstance(d, RankThreshold):
        return np.linalg.matrix_rank(Ts) <= d.r
    if isinstance(d, MatrixPredicate):
        mats = zip(Ts) if As is None else zip(Ts, As, Bs)
        return np.array([bool(d.fn(*m, dom, cod)) for m in mats], dtype=bool)
    if kind == "real" and isinstance(d, RealFormOf):
        # [T (+) T, N_X, N_Y] between the complexifications
        nx, ny = natural_i_operator(dom), natural_i_operator(cod)
        k = len(Ts)
        return _decide(d.base, nx.space, ny.space, block_diag2(Ts),
                       np.broadcast_to(nx.A, (k, *nx.A.shape)),
                       np.broadcast_to(ny.A, (k, *ny.A.shape)))
    if kind == "complex" and isinstance(d, ComplexifiedReal):
        return _decide(d.base, dom, cod, Ts)
    if kind == "complex" and isinstance(d, ConjugateOf):
        return _decide(d.base, dom, cod, Ts, -As, -Bs)
    raise DescriptorError(
        f"descriptor {type(d).__name__} is not valid for a {kind} oracle")


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def complexify_ideal(real_oracle: IdealOracle) -> IdealOracle:
    """Membership of [T, A, B] := membership of the matrix T in the real class."""
    if real_oracle.kind != "real":
        raise DescriptorError("complexify_ideal expects a real-kind oracle")
    return IdealOracle("complex", ComplexifiedReal(real_oracle))


def realify_ideal(complex_oracle: IdealOracle) -> IdealOracle:
    """Membership of T := membership of [T (+) T, N_X, N_Y] in the complex
    class, with the doubled spaces carrying the averaged norm."""
    if complex_oracle.kind != "complex":
        raise DescriptorError("realify_ideal expects a complex-kind oracle")
    return IdealOracle("real", RealFormOf(complex_oracle))


def conjugate_ideal(complex_oracle: IdealOracle) -> IdealOracle:
    """Decide on the conjugated operator [T, -A, -B]."""
    if complex_oracle.kind != "complex":
        raise DescriptorError("conjugate_ideal expects a complex-kind oracle")
    return IdealOracle("complex", ConjugateOf(complex_oracle))


# ---------------------------------------------------------------------------
# Self-conjugacy audit
# ---------------------------------------------------------------------------

def _squares(corpus: Sequence[RespectingOperator], groups: list, *,
             tol: Tolerances) -> list:
    """The groups of the squares [T (+) T, A (+) -A, B (+) -B] of a grouped
    corpus, on each group's averaged-norm doubled spaces; the first failure
    in corpus order is raised."""
    squares = []
    errors = {}  # corpus index -> the first error of its square
    for idx, dom, cod, Ts, As, Bs in groups:
        dom2 = direct_sum(dom, dom, "complexification")
        cod2 = direct_sum(cod, cod, "complexification")
        TT, A2s, B2s = block_diag2(Ts), _split_matrix(As), _split_matrix(Bs)
        first = first_errors(
            _split_on(dom2, [corpus[i].domain for i in idx], A2s, tol=tol)[1],
            _split_on(cod2, [corpus[i].codomain for i in idx], B2s, tol=tol)[1],
            _respect_residuals(TT, A2s, B2s, tol)[1])
        errors.update((i, e) for i, e in zip(idx, first) if e is not None)
        squares.append((idx, dom2, cod2, TT, A2s, B2s))
    if errors:
        raise errors[min(errors)]
    return squares


def audit_self_conjugacy(oracle: IdealOracle,
                         corpus: Sequence[RespectingOperator], *,
                         tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Check conjugation invariance and square determination on the corpus.

    Passing means: decisions agree on [T, A, B] vs [T, -A, -B], and the
    membership of the doubled operator [T (+) T, A (+) -A, B (+) -B] matches
    the membership of [T, A, B] in both directions.  The doubled spaces carry
    the averaged norm, on which A (+) -A is an i-operator only for
    Euclidean-like spaces (see theory.split_structure); elsewhere the audit
    raises StructureValidationError.
    """
    return _audit(oracle, corpus, *_grouped(oracle, corpus), tol=tol)


def _audit(oracle: IdealOracle, corpus: Sequence[RespectingOperator], groups: list,
           direct: np.ndarray, *, tol: Tolerances) -> VerificationReport:
    """audit_self_conjugacy of a corpus, its groups and its decisions."""
    conjugated = _members(conjugate_ideal(oracle), groups)
    square = _members(oracle, _squares(corpus, groups, tol=tol))
    conj_mismatch = [{"index": int(i)} for i in np.flatnonzero(conjugated != direct)]
    square_fwd = [{"index": int(i)} for i in np.flatnonzero(direct & ~square)]
    square_bwd = [{"index": int(i)} for i in np.flatnonzero(square & ~direct)]
    bad = conj_mismatch or square_fwd or square_bwd
    return VerificationReport(
        claim="self-conjugacy-audit",
        status=VIOLATED if bad else VERIFIED,
        residuals={"conjugation_mismatches": float(len(conj_mismatch)),
                   "square_forward_failures": float(len(square_fwd)),
                   "square_backward_failures": float(len(square_bwd))},
        witness={"conjugation": conj_mismatch, "square_forward": square_fwd,
                 "square_backward": square_bwd} if bad else None,
        notes=["threshold-style oracles are decision instruments, not ideals "
               "closed under addition",
               "no violation on a finite corpus is not a proof of "
               "self-conjugacy"])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# registry of named predicates usable from scenario files, keyed (label, kind)
PREDICATES: dict = {}


def register_predicate(label: str, kind: str, fn: Callable) -> None:
    PREDICATES[(label, kind)] = fn


def _nonzero_real(T, dom, cod):
    return bool(np.any(T != 0.0))


def _nonzero_complex(T, A, B, dom, cod):
    return bool(np.any(T != 0.0))


def _a_entry_sign_complex(T, A, B, dom, cod):
    # deliberately structure-sensitive: negative control for the audit
    return bool(A[0, A.shape[1] - 1] <= 0.0)


register_predicate("nonzero", "real", _nonzero_real)
register_predicate("nonzero", "complex", _nonzero_complex)
register_predicate("a-entry-sign", "complex", _a_entry_sign_complex)


def oracle_to_dict(oracle: IdealOracle) -> dict:
    d = oracle.descriptor
    if isinstance(d, NormThreshold):
        desc = {"type": "norm_threshold", "functional": d.functional,
                "bound": d.bound}
    elif isinstance(d, RankThreshold):
        desc = {"type": "rank_threshold", "r": d.r}
    elif isinstance(d, MatrixPredicate):
        desc = {"type": "predicate", "label": d.label}
    elif isinstance(d, AllOperators):
        desc = {"type": "all"}
    elif isinstance(d, NoOperators):
        desc = {"type": "none"}
    else:
        raise DescriptorError(
            f"descriptor {type(d).__name__} has no serial form")
    return {"kind": oracle.kind, "descriptor": desc}


def oracle_from_dict(obj: dict) -> IdealOracle:
    kind = obj["kind"]
    desc = obj["descriptor"]
    t = desc.get("type")
    if t == "norm_threshold":
        d = NormThreshold(desc["functional"], float(desc["bound"]))
    elif t == "rank_threshold":
        d = RankThreshold(int(desc["r"]))
    elif t == "predicate":
        label = desc["label"]
        fn = PREDICATES.get((label, kind))
        if fn is None:
            raise DescriptorError(f"unknown {kind} predicate {label!r}")
        d = MatrixPredicate(label, fn)
    elif t == "all":
        d = AllOperators()
    elif t == "none":
        d = NoOperators()
    else:
        raise DescriptorError(f"unknown oracle descriptor type {t!r}")
    return IdealOracle(kind, d)
