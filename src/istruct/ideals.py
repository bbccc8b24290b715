"""Membership oracles for operator classes, desk-scale ideal norms, and the
real <-> complex transforms (doubling, forgetting, conjugating).

`decide_real(oracle, corpus)` and `decide_complex(oracle, corpus)` decide a
whole corpus in one call.  They group the operators by (domain, codomain),
build what depends only on the two spaces once per group (the Gram factors,
the complexified spaces and their natural i-operators), and run the norm and
rank kernels on each group's stacked matrices.

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
                        _singular_values, block_diag2)
from .report import VERIFIED, VIOLATED, VerificationReport
from .spaces import NormedSpace, direct_sum, space_key
from .structures import natural_i_operator
from .theory import _split_matrix, _split_on

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
    corpus order (empty for an empty corpus).  The operators are grouped by
    (domain, codomain), and each group is decided on its stacked matrices."""
    _descriptor(oracle, "real")
    out = np.zeros(len(corpus), dtype=bool)
    for idx, dom, cod, Ts in _groups([(op.domain, op.codomain) for op in corpus],
                                     [op.matrix for op in corpus]):
        out[idx] = _decide(oracle, Ts, None, None, dom, cod)
    return out


def decide_complex(oracle: IdealOracle,
                   corpus: Sequence[RespectingOperator]) -> np.ndarray:
    """Membership of each [T, A, B] of the corpus, as a bool array in corpus
    order (empty for an empty corpus).  The operators are grouped by (domain,
    codomain) space, and each group is decided on its stacked T, A and B."""
    _descriptor(oracle, "complex")
    out = np.zeros(len(corpus), dtype=bool)
    for idx, dom, cod, Ts, As, Bs in _complex_groups(corpus):
        out[idx] = _decide(oracle, Ts, As, Bs, dom, cod)
    return out


def _groups(pairs: list, matrices: list):
    """(indices, dom, cod, Ts) for each group of the (domain, codomain) pairs
    under space equality, in order of first appearance; Ts stacks the group's
    matrices as floats (k, cod.dim, dom.dim)."""
    keys: dict = {}  # id -> key, computed once for a space shared by pairs
    groups: dict = {}
    for i, (dom, cod) in enumerate(pairs):
        for space in (dom, cod):
            if id(space) not in keys:
                keys[id(space)] = space_key(space)
        groups.setdefault((keys[id(dom)], keys[id(cod)]), (dom, cod, []))[2].append(i)
    for dom, cod, idx in groups.values():
        Ts = [np.asarray(matrices[i], dtype=float) for i in idx]
        for T in Ts:
            if T.shape != (cod.dim, dom.dim):
                raise DimensionMismatchError(
                    f"T must be {cod.dim} x {dom.dim}, got {T.shape}")
        yield idx, dom, cod, np.stack(Ts)


def _complex_groups(corpus: Sequence[RespectingOperator]):
    """_groups of a corpus of [T, A, B], with each group's structure matrices
    stacked as well: (indices, dom, cod, Ts, As, Bs)."""
    for idx, dom, cod, Ts in _groups(
            [(op.domain.space, op.codomain.space) for op in corpus],
            [op.matrix for op in corpus]):
        yield (idx, dom, cod, Ts, np.stack([corpus[i].domain.A for i in idx]),
               np.stack([corpus[i].codomain.A for i in idx]))


def _descriptor(oracle: IdealOracle, kind: str) -> Descriptor:
    if oracle.kind != kind:
        raise DescriptorError(f"expected a {kind}-kind oracle")
    return oracle.descriptor


def _decide(oracle: IdealOracle, Ts: np.ndarray, As: Optional[np.ndarray],
            Bs: Optional[np.ndarray], dom: NormedSpace,
            cod: NormedSpace) -> np.ndarray:
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
        if As is None:
            return np.array([bool(d.fn(T, dom, cod)) for T in Ts], dtype=bool)
        return np.array([bool(d.fn(T, A, B, dom, cod))
                         for T, A, B in zip(Ts, As, Bs)], dtype=bool)
    if kind == "real" and isinstance(d, RealFormOf):
        # [T (+) T, N_X, N_Y] between the complexifications
        nx, ny = natural_i_operator(dom), natural_i_operator(cod)
        k = len(Ts)
        return _decide(d.base, block_diag2(Ts), np.broadcast_to(nx.A, (k, *nx.A.shape)),
                       np.broadcast_to(ny.A, (k, *ny.A.shape)), nx.space, ny.space)
    if kind == "complex" and isinstance(d, ComplexifiedReal):
        return _decide(d.base, Ts, None, None, dom, cod)
    if kind == "complex" and isinstance(d, ConjugateOf):
        return _decide(d.base, Ts, -As, -Bs, dom, cod)
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

def _squares(corpus: Sequence[RespectingOperator], *,
             tol: Tolerances) -> list:
    """[T (+) T, A (+) -A, B (+) -B] on the averaged-norm doubled spaces, for
    each operator of the corpus in its order; the doubled spaces are built
    once per (domain, codomain) group.  The first failure in corpus order is
    raised."""
    out = [None] * len(corpus)
    errors = {}  # corpus index -> the first error of its square
    for idx, dom, cod, Ts, As, Bs in _complex_groups(corpus):
        TT, A2s, B2s = block_diag2(Ts), _split_matrix(As), _split_matrix(Bs)
        doms, dom_errors = _split_on(direct_sum(dom, dom, "complexification"),
                                     [corpus[i].domain for i in idx], A2s, tol=tol)
        cods, cod_errors = _split_on(direct_sum(cod, cod, "complexification"),
                                     [corpus[i].codomain for i in idx], B2s, tol=tol)
        res, respect_errors = _respect_residuals(TT, A2s, B2s, tol)
        first = first_errors(dom_errors, cod_errors, respect_errors)
        for j, i in enumerate(idx):
            if first[j] is not None:
                errors[i] = first[j]
            else:
                out[i] = RespectingOperator(doms[j], cods[j], TT[j], res[j])
    if errors:
        raise errors[min(errors)]
    return out


def audit_self_conjugacy(oracle: IdealOracle,
                         corpus: Sequence[RespectingOperator], *,
                         tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Check conjugation invariance and square determination on the corpus.

    Passing means: decisions agree on [T, A, B] vs [T, -A, -B], and the
    membership of the doubled operator [T (+) T, A (+) -A, B (+) -B] matches
    the membership of [T, A, B] in both directions.  The doubled spaces carry
    the averaged norm, on which A (+) -A is an i-operator only for
    Euclidean-like spaces (see theory.split_structure); elsewhere the audit
    raises StructureValidationError.  The direct, the conjugate and the square
    corpus are each decided in one call.
    """
    conj = conjugate_ideal(oracle)
    direct = decide_complex(oracle, corpus)
    conjugated = decide_complex(conj, corpus)
    square = decide_complex(oracle, _squares(corpus, tol=tol))
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
