"""Membership oracles for operator classes, desk-scale ideal norms, and the
real <-> complex transforms (doubling, forgetting, conjugating).

Threshold-style oracles are decision instruments for exercising the
transforms; they are not operator ideals in the closed-under-addition sense,
and every report produced here says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DescriptorError, DimensionMismatchError
from .morphisms import (RespectingOperator, _whitened, block_diag2,
                        complexify_operator, make_respecting)
from .report import VERIFIED, VIOLATED, VerificationReport
from .spaces import NormedSpace

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
    M = _whitened(T, dom, cod)
    if M is None:
        raise DescriptorError(
            "ideal norms require Euclidean-like norms on both spaces")
    sv = np.linalg.svd(M, compute_uv=False)
    if functional == OPERATOR_NORM:
        return IdealNormValue(functional, float(sv[0]) if sv.size else 0.0, True)
    if functional == HILBERT_SCHMIDT:
        return IdealNormValue(functional, float(np.sqrt(np.sum(sv * sv))), True)
    if functional == TRACE_NORM:
        return IdealNormValue(functional, float(np.sum(sv)), True)
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


def rank_of(T: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(T))


def decide_real(oracle: IdealOracle, item: RealOperator) -> bool:
    if oracle.kind != "real":
        raise DescriptorError("expected a real-kind oracle")
    d = oracle.descriptor
    if isinstance(d, AllOperators):
        return True
    if isinstance(d, NoOperators):
        return False
    if isinstance(d, NormThreshold):
        v = ideal_norm(d.functional, item.matrix, item.domain, item.codomain)
        return v.value <= d.bound + THRESHOLD_ATOL
    if isinstance(d, RankThreshold):
        return rank_of(item.matrix) <= d.r
    if isinstance(d, MatrixPredicate):
        return bool(d.fn(item.matrix, item.domain, item.codomain))
    if isinstance(d, RealFormOf):
        return _decide_real_form(d, item)
    raise DescriptorError(
        f"descriptor {type(d).__name__} is not valid for a real oracle")


def decide_complex(oracle: IdealOracle, op: RespectingOperator) -> bool:
    if oracle.kind != "complex":
        raise DescriptorError("expected a complex-kind oracle")
    d = oracle.descriptor
    if isinstance(d, AllOperators):
        return True
    if isinstance(d, NoOperators):
        return False
    if isinstance(d, NormThreshold):
        v = ideal_norm(d.functional, op.matrix, op.domain.space, op.codomain.space)
        return v.value <= d.bound + THRESHOLD_ATOL
    if isinstance(d, RankThreshold):
        return rank_of(op.matrix) <= d.r
    if isinstance(d, MatrixPredicate):
        return bool(d.fn(op.matrix, op.domain.A, op.codomain.A,
                         op.domain.space, op.codomain.space))
    if isinstance(d, ComplexifiedReal):
        return decide_real(d.base, RealOperator(op.matrix, op.domain.space,
                                                op.codomain.space))
    if isinstance(d, ConjugateOf):
        from .morphisms import conjugate_operator
        return decide_complex(d.base, conjugate_operator(op))
    raise DescriptorError(
        f"descriptor {type(d).__name__} is not valid for a complex oracle")


def _decide_real_form(d: RealFormOf, item: RealOperator) -> bool:
    return decide_complex(d.base, complexify_operator(
        item.matrix, item.domain, item.codomain))


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

def _square_operator(op: RespectingOperator, *,
                     tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """[T (+) T, A (+) -A, B (+) -B] on the averaged-norm doubled spaces."""
    from .theory import split_structure
    dom = split_structure(op.domain, tol=tol, mode="complexification")
    cod = split_structure(op.codomain, tol=tol, mode="complexification")
    return make_respecting(dom, cod, block_diag2(op.matrix), tol=tol)


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
    from .morphisms import conjugate_operator
    conj = conjugate_ideal(oracle)
    conj_mismatch, square_fwd, square_bwd = [], [], []
    for idx, op in enumerate(corpus):
        direct = decide_complex(oracle, op)
        if decide_complex(conj, op) != direct:
            conj_mismatch.append({"index": idx})
        sq = _square_operator(op, tol=tol)
        sq_decision = decide_complex(oracle, sq)
        if direct and not sq_decision:
            square_fwd.append({"index": idx})
        if sq_decision and not direct:
            square_bwd.append({"index": idx})
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
