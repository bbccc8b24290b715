"""Membership oracles for operator classes, desk-scale ideal norms, and the
real <-> complex transforms (doubling, forgetting, conjugating).

`decide_real(oracle, corpus)` and `decide_complex(oracle, corpus)` decide a
whole corpus in one call, and run the norm and rank kernels and the
predicates on the stacked matrices of each (domain, codomain) group; what
depends only on a space (its whitening factors, its complexification and the
natural i-operator there) is cached on the space.  A corpus is either a
GroupedCorpus, already held in those groups (the CLI draws its corpora that
way), or a sequence of operators, which each public call groups once on
entry; its later decisions run on the same groups, and an oracle that reads
no structure (any but a predicate) decides the conjugates as the direct
operators and the theorem's unfolded ones as the squares.  A shape error
names the first misshapen operator in corpus order.

Threshold-style oracles are decision instruments for exercising the
transforms; they are not operator ideals in the closed-under-addition sense,
and every report produced here says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (DescriptorError, first_errors, is_json_int, is_json_number,
                     json_field, unknown_keys)
from .morphisms import (RespectingOperator, _respect_residuals,
                        _singular_values, _split_matrix)
from .report import VerificationReport, bounded
from .spaces import NormedSpace, _checked_operator, block_diag2, space_key
from .structures import _split_on, natural_i_operator

THRESHOLD_ATOL = 1e-9  # norm thresholds accept up to bound + THRESHOLD_ATOL

OPERATOR_NORM = "operator_norm"
HILBERT_SCHMIDT = "hilbert_schmidt"
TRACE_NORM = "trace_norm"

DECISION_NOTE = ("threshold-style oracles are decision instruments, not ideals "
                 "closed under addition")


@dataclass(eq=False)
class RealOperator:
    """A plain real operator between two normed spaces."""

    matrix: np.ndarray
    domain: NormedSpace
    codomain: NormedSpace


# ---------------------------------------------------------------------------
# Ideal norms (Euclidean-normed spaces only)
# ---------------------------------------------------------------------------

def ideal_norm(functional: str, T, dom: NormedSpace, cod: NormedSpace) -> float:
    """operator_norm, hilbert_schmidt, or trace_norm of T : dom -> cod."""
    T = _checked_operator(T, dom, cod)
    return float(ideal_norms(functional, T, dom, cod))


def ideal_norms(functional: str, Ts: np.ndarray, dom: NormedSpace,
                cod: NormedSpace) -> np.ndarray:
    """The ideal norm of each matrix of a stack Ts (..., cod.dim, dom.dim), from
    one stacked SVD; each value is bitwise that of ideal_norm."""
    sv = _singular_values(Ts, dom._whitening, cod._whitening)
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

    def __post_init__(self):
        if self.functional not in (OPERATOR_NORM, HILBERT_SCHMIDT, TRACE_NORM):
            raise DescriptorError(f"unknown ideal-norm functional {self.functional!r}")
        if not is_json_number(self.bound) or not 0 <= self.bound < np.inf:
            raise DescriptorError(
                f"norm threshold bound must be a finite number >= 0, got {self.bound!r}")
        self.bound = float(self.bound)


@dataclass(eq=False)
class RankThreshold:
    r: int

    def __post_init__(self):
        if not is_json_int(self.r) or self.r < 0:
            raise DescriptorError(f"rank threshold r must be an integer >= 0, got {self.r!r}")
        self.r = int(self.r)


@dataclass(eq=False)
class MatrixPredicate:
    """Named pure predicate, decided a whole group at a time.

    For k operators from dom to cod, a real-kind oracle calls fn(Ts, dom, cod)
    with Ts the stack (k, m, n) of their matrices, and a complex-kind oracle
    calls fn(Ts, As, Bs, dom, cod) with the stacks of their domain and
    codomain structure matrices as well.  fn returns k booleans, the
    membership of each operator in stack order; any other result is a
    DescriptorError naming the label."""

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
        _check_kind(self.kind)


def _check_kind(kind) -> None:
    if kind not in ("real", "complex"):
        raise DescriptorError(f"oracle kind must be real or complex, got {kind!r}")


@dataclass(eq=False)
class GroupedCorpus:
    """A corpus held in its (domain, codomain) groups, as _groups gives them:
    (idx, dom, cod, Ts) for real operators and (idx, dom, cod, Ts, As, Bs) for
    [T, A, B].  certificates[i] is the (domain, codomain) Certificate pair of
    item i of a complex corpus, which the audit's squares inherit.  The
    stacks are trusted to map dom to cod."""

    groups: list
    certificates: Sequence = ()


def _grouped_corpus(corpus, kind: str) -> GroupedCorpus:
    """corpus itself when it is a GroupedCorpus, else its one grouping."""
    if isinstance(corpus, GroupedCorpus):
        return corpus
    if kind == "real":
        return GroupedCorpus(_groups((op.domain, op.codomain, op.matrix) for op in corpus))
    return GroupedCorpus(_groups((op.domain.space, op.codomain.space, op.matrix,
                                  op.domain.A, op.codomain.A) for op in corpus),
                         [(op.domain.certificate, op.codomain.certificate)
                          for op in corpus])


def decide_real(oracle: IdealOracle,
                corpus: Union[GroupedCorpus, Sequence[RealOperator]]) -> np.ndarray:
    """Membership of each RealOperator of the corpus, as a bool array in
    corpus order (empty for an empty corpus)."""
    _descriptor(oracle, "real")
    return _members(oracle, _grouped_corpus(corpus, "real").groups)


def decide_complex(oracle: IdealOracle,
                   corpus: Union[GroupedCorpus, Sequence[RespectingOperator]]
                   ) -> np.ndarray:
    """Membership of each [T, A, B] of the corpus, as a bool array in corpus
    order (empty for an empty corpus)."""
    _descriptor(oracle, "complex")
    return _members(oracle, _grouped_corpus(corpus, "complex").groups)


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
        T = _checked_operator(T, dom, cod)
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
        out = np.asarray(d.fn(Ts, dom, cod) if As is None else d.fn(Ts, As, Bs, dom, cod))
        if out.dtype != bool or out.shape != (len(Ts),):
            raise DescriptorError(
                f"predicate {d.label!r} must return {len(Ts)} booleans for "
                f"{len(Ts)} operators, got {out.dtype} of shape {out.shape}")
        return out
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
    _descriptor(real_oracle, "real")
    return IdealOracle("complex", ComplexifiedReal(real_oracle))


def realify_ideal(complex_oracle: IdealOracle) -> IdealOracle:
    """Membership of T := membership of [T (+) T, N_X, N_Y] in the complex
    class, with the doubled spaces carrying the averaged norm."""
    _descriptor(complex_oracle, "complex")
    return IdealOracle("real", RealFormOf(complex_oracle))


def conjugate_ideal(complex_oracle: IdealOracle) -> IdealOracle:
    """Decide on the conjugated operator [T, -A, -B]."""
    _descriptor(complex_oracle, "complex")
    return IdealOracle("complex", ConjugateOf(complex_oracle))


# ---------------------------------------------------------------------------
# Self-conjugacy audit
# ---------------------------------------------------------------------------

def _squares(corpus: GroupedCorpus, *, tol: Tolerances) -> list:
    """The groups of the squares [T (+) T, A (+) -A, B (+) -B] of a grouped
    complex corpus, on each group's averaged-norm doubled spaces; the first
    failure in corpus order is raised."""
    squares = []
    errors = {}  # corpus index -> the first error of its square
    for idx, dom, cod, Ts, As, Bs in corpus.groups:
        dom2, cod2 = natural_i_operator(dom).space, natural_i_operator(cod).space
        TT, A2s, B2s = block_diag2(Ts), _split_matrix(As), _split_matrix(Bs)
        doms, cods = zip(*(corpus.certificates[i] for i in idx))
        first = first_errors(_split_on(dom2, A2s, doms, tol=tol)[1],
                             _split_on(cod2, B2s, cods, tol=tol)[1],
                             _respect_residuals(TT, A2s, B2s, tol)[1])
        errors.update((i, e) for i, e in zip(idx, first) if e is not None)
        squares.append((idx, dom2, cod2, TT, A2s, B2s))
    if errors:
        raise errors[min(errors)]
    return squares


def audit_self_conjugacy(oracle: IdealOracle,
                         corpus: Union[GroupedCorpus, Sequence[RespectingOperator]], *,
                         tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Check conjugation invariance and square determination on the corpus.

    Passing means: decisions agree on [T, A, B] vs [T, -A, -B], and the
    membership of the doubled operator [T (+) T, A (+) -A, B (+) -B] matches
    the membership of [T, A, B] in both directions.  The doubled spaces carry
    the averaged norm, on which A (+) -A is an i-operator only for inner
    product spaces: on spaces with neither a Gram nor dimension 2 the audit
    raises StructureValidationError at once (see structures._split_on).
    """
    _descriptor(oracle, "complex")
    corpus = _grouped_corpus(corpus, "complex")
    return _audit(oracle, corpus, _members(oracle, corpus.groups), tol=tol)[0]


def _reads_structures(oracle: IdealOracle) -> bool:
    """Whether a complex oracle may read A and B: a predicate may, also under
    ConjugateOf; any other decides [T, A, B] on T and the spaces alone."""
    d = oracle.descriptor
    while isinstance(d, ConjugateOf):
        d = d.base.descriptor
    return isinstance(d, MatrixPredicate)


def _audit(oracle: IdealOracle, corpus: GroupedCorpus, direct: np.ndarray, *,
           tol: Tolerances) -> tuple:
    """audit_self_conjugacy of a grouped corpus and its decisions, and the
    decisions of the squares.  The conjugate decisions of an oracle that
    reads no structure are its direct ones."""
    conjugated = (_members(conjugate_ideal(oracle), corpus.groups)
                  if _reads_structures(oracle) else direct)
    square = _members(oracle, _squares(corpus, tol=tol))
    conj_mismatch = [{"index": int(i)} for i in np.flatnonzero(conjugated != direct)]
    square_fwd = [{"index": int(i)} for i in np.flatnonzero(direct & ~square)]
    square_bwd = [{"index": int(i)} for i in np.flatnonzero(square & ~direct)]
    return bounded(
        "self-conjugacy-audit", not (conj_mismatch or square_fwd or square_bwd),
        {"conjugation_mismatches": float(len(conj_mismatch)),
         "square_forward_failures": float(len(square_fwd)),
         "square_backward_failures": float(len(square_bwd))},
        witness={"conjugation": conj_mismatch, "square_forward": square_fwd,
                 "square_backward": square_bwd},
        notes=[DECISION_NOTE,
               "no violation on a finite corpus is not a proof of self-conjugacy"]), square


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _nonzero(Ts, *rest):
    return np.any(Ts != 0.0, axis=(-2, -1))


def _a_entry_sign_complex(Ts, As, Bs, dom, cod):
    # deliberately structure-sensitive: negative control for the audit
    return As[:, 0, -1] <= 0.0


# the named predicates usable from scenario files, keyed (label, kind)
PREDICATES = {("nonzero", "real"): _nonzero,
              ("nonzero", "complex"): _nonzero,
              ("a-entry-sign", "complex"): _a_entry_sign_complex}


# type -> (descriptor type, its fields in JSON key order); a predicate's
# function is looked up in PREDICATES by (label, kind)
_SERIAL = {"norm_threshold": (NormThreshold, ("functional", "bound")),
           "rank_threshold": (RankThreshold, ("r",)),
           "predicate": (MatrixPredicate, ("label",)),
           "all": (AllOperators, ()),
           "none": (NoOperators, ())}


def oracle_from_dict(obj: dict) -> IdealOracle:
    kind = json_field(obj, "kind", "an oracle")
    _check_kind(kind)  # before a list kind reaches the PREDICATES lookup
    desc = json_field(obj, "descriptor", "an oracle")
    t = json_field(desc, "type", "an oracle descriptor")
    if not isinstance(t, str) or t not in _SERIAL:
        raise DescriptorError(f"unknown oracle descriptor type {t!r}")
    cls, fields = _SERIAL[t]
    args = [json_field(desc, f, f"an oracle descriptor of type {t!r}") for f in fields]
    if unknown := unknown_keys(obj, {"kind", "descriptor"}):
        raise DescriptorError(f"an oracle has unknown key(s) {unknown}")
    if unknown := unknown_keys(desc, {"type", *fields}):
        raise DescriptorError(f"an oracle descriptor of type {t!r} has unknown key(s) {unknown}")
    if cls is MatrixPredicate:
        label = args[0]
        fn = PREDICATES.get((label, kind)) if isinstance(label, str) else None
        if fn is None:
            raise DescriptorError(f"unknown {kind} predicate: 'label' is {label!r}")
        args.append(fn)
    return IdealOracle(kind, cls(*args))
