"""Executable constructions: complexification witnesses, the square-space
isomorphism, the Cartesian-square factorization identities, and the
real/complex transform roundtrip checks for membership oracles.

The witnesses, squares and identities are checked a shape group at a time:
each has a private kernel over stacks of k items of one shape (matrices, and
the certificates squares inherit) that makes every check of its single-item
function.  It returns a row of residuals per item, read by the check's
_Residuals, and the error of each item that the single-item call would raise
(None where it passes).  The public single-item function is the kernel's call
with k = 1, unwrapped by errors.single, and alone builds its report and its
structure or operator objects.  A caller that stacks a corpus raises the error
of its first failing item in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, SAMPLE_SEED, Tolerances
from .errors import WitnessError, first_errors, single
from .ideals import (DECISION_NOTE, _audit, _grouped_corpus, _members,
                     _reads_structures, complexify_ideal, decide_real, realify_ideal)
from .morphisms import (RANK_RTOL, RespectingOperator, _fitted_matrix, _inverses,
                        _respect_residuals, _singular_values, _split_matrix,
                        injection_first, injection_second,
                        matrix_norm_between, surjection_first,
                        surjection_second)
from .report import INCONCLUSIVE, VERIFIED, VIOLATED, VerificationReport, bounded
from .spaces import (EuclideanQuadratic, NormedSpace, SubspaceNorm, _check_finite, _gram_errors,
                     _whitening_factors, block_diag2, direct_sum, euclidean_gram)
from .structures import (ComplexStructure, _split_on, natural_i_operator,
                         natural_i_operator_matrix)

class _Residuals(NamedTuple):
    """A claim's items read off their rows of residuals, a column per name:
    an item holds iff each lies within its column's bound (a NaN does not)."""

    claim: str
    names: tuple
    bounds: np.ndarray
    tolerances: dict  # as the reports state them

    def report(self, row: np.ndarray, witness=None) -> VerificationReport:
        """One item's report; a failure's witness is by default its failing residuals."""
        row = row.tolist()
        bad = {k: v for k, v, b in zip(self.names, row, self.bounds.tolist()) if not v <= b}
        return bounded(self.claim, not bad, dict(zip(self.names, row)), self.tolerances,
                       {"failed": bad} if witness is None else witness)


HYP_TOL = 1e-8  # residuals of T as an anticommuting involution, and of S^-1 S - I
NORM_SLACK = 1e-6  # how far ||S|| may exceed ||I + T||
# the rows of _witnesses: a witness holds within these bounds
ROUNDTRIP = _Residuals("complexification-roundtrip",
                       ("involution", "anticommutation", "inverse_composition", "norm_excess"),
                       np.array([HYP_TOL, HYP_TOL, HYP_TOL, NORM_SLACK]),
                       {"residuals": HYP_TOL, "norm_slack": NORM_SLACK})


# ---------------------------------------------------------------------------
# Complexification witnesses (anticommuting involutions)
# ---------------------------------------------------------------------------

def conjugation_matrix(m: int) -> np.ndarray:
    """(y1, y2) -> (y1, -y2) on a doubled space of half-dimension m."""
    return _split_matrix(np.eye(m))


def extract_conjugation(iso: RespectingOperator, *,
                        tol: float = 1e-9) -> np.ndarray:
    """From an isomorphism onto a doubled space with its natural i-operator,
    produce the anticommuting involution T = S^{-1} C S on the domain.

    Verifies T^2 = I and T A = -A T within tol.
    """
    S = _fitted_matrix(iso)
    if S.shape[0] != S.shape[1]:
        raise WitnessError("map is not invertible (non-square)")
    Ts, errors = _conjugations(S[None], iso.domain.A, iso.codomain.A, tol=tol)
    return single(Ts[0], errors[0])


def _conjugations(Ss: np.ndarray, As, Bs, *, tol: float) -> tuple:
    """extract_conjugation of each isomorphism [S, A, B] of a stack of square
    matrices Ss (k, n, n): the stack of T and, for each, the error the
    one-item call raises or None.  The isomorphism test keeps its default
    tolerances, as in is_isomorphism(iso)."""
    singular, _, _, _, respect = _inverses(Ss, As, Bs, DEFAULT_TOL)
    errors = first_errors(
        [WitnessError("map is not invertible (singular)") if s else None
         for s in singular], respect)
    dim = Ss.shape[-1]
    if dim % 2 != 0:
        return Ss, first_errors(
            errors, [WitnessError("codomain dimension must be even")] * len(Ss))
    C = conjugation_matrix(dim // 2)
    Ts = np.zeros_like(Ss)
    Ts[~singular] = np.linalg.solve(Ss[~singular], C @ Ss[~singular])
    r_inv, r_anti = _involution_residuals(Ts, As)
    return Ts, first_errors(errors, [
        WitnessError(f"extracted map fails the involution/anticommutation "
                     f"residuals ({a:.3e}, {b:.3e})") if not (a <= tol and b <= tol) else None
        for a, b in zip(r_inv, r_anti)])


def _involution_residuals(Ts: np.ndarray, As) -> tuple:
    """max |T^2 - I| and max |T A + A T| of each T of a stack (k, n, n)."""
    eye = np.eye(Ts.shape[-1])
    return (np.max(np.abs(Ts @ Ts - eye), axis=(1, 2)),
            np.max(np.abs(Ts @ As + As @ Ts), axis=(1, 2)))


@dataclass(eq=False)
class ComplexificationWitness:
    """Evidence that [X, A] is the complexification of the fixed subspace
    Y = {x + Tx} of an anticommuting involution T."""

    T: np.ndarray
    Y_basis: np.ndarray  # columns form an orthonormal basis of Y
    S: RespectingOperator  # [X, A] -> [Y (+) Y, N_Y]
    S_inverse: RespectingOperator
    norm_bound: dict  # {"S": .., "I_plus_T": .., "exact": bool, "status": ..}
    report: VerificationReport


def build_complexification_witness(s: ComplexStructure, T, *,
                                   tol: Tolerances = DEFAULT_TOL
                                   ) -> ComplexificationWitness:
    """Realize [X, A] as the doubled space over Y = {x + Tx}.

    The forward map is x -> (Ax + TAx, x + Tx) in Y-coordinates; the inverse
    is (y1, y2) -> (y2 - A y1) / 2 read back through the basis.
    """
    dim = s.space.dim
    T = np.asarray(T, dtype=float)
    if T.shape != (dim, dim):
        raise WitnessError(f"T must be {dim} x {dim}, got {T.shape}")
    _check_finite(T, "T", WitnessError)
    gram = euclidean_gram(s.space)
    w = _witnesses(s.A[None], T[None], None if gram is None else gram[None],
                   s.space._whitening, [s.space], tol=tol)
    norm_bound, report = _witness_report(w.residuals[0], w.norms[0],
                                         single(w.exact[0], w.errors[0]))
    y = w.y[0]
    ny = natural_i_operator(y if isinstance(y, NormedSpace)
                            else NormedSpace(dim // 2, EuclideanQuadratic(y)))
    return ComplexificationWitness(
        T, w.B[0], RespectingOperator(s, ny, w.S[0], w.respect[0][0]),
        RespectingOperator(ny, s, w.S_inverse[0], w.respect[1][0]),
        norm_bound, report)


class _Witnesses(NamedTuple):
    """build_complexification_witness of each item of a stack: the stacks of
    Y's bases and of S and S^-1, the respect residuals of S and S^-1, Y's Gram
    (or Y itself when X is not Euclidean-like), and of each item its row of
    ROUNDTRIP residuals, its norms (||S||, ||I + T||), whether both are exact,
    and its error."""

    B: np.ndarray
    S: np.ndarray
    S_inverse: np.ndarray
    respect: tuple
    y: list
    residuals: np.ndarray
    norms: np.ndarray
    exact: list
    errors: list


def _witnesses(As: np.ndarray, Ts: np.ndarray, grams: Optional[np.ndarray],
               whitening: Optional[tuple], spaces: Sequence[NormedSpace], *,
               tol: Tolerances) -> _Witnesses:
    """The witnesses for k structures [X_j, A_j] of one dimension n and their
    involutions T_j, stacked (k, n, n).  For Euclidean-like X_j, grams stacks
    their Grams and whitening is their _whitening_factors, and the norms are
    exact; otherwise both are None, Y_j is built and the norms are estimated
    item by item on the X_j (NaN where an item raised)."""
    dim = Ts.shape[-1]
    half = dim // 2
    r_inv, r_anti = _involution_residuals(Ts, As)
    P = np.eye(dim) + Ts
    U, sv, _ = np.linalg.svd(P)
    rank = np.sum(sv > RANK_RTOL * sv[:, :1], axis=1)
    errors = first_errors(
        [WitnessError(f"T is not an anticommuting involution (residuals "
                      f"{a:.3e}, {b:.3e})") if not (a <= HYP_TOL and b <= HYP_TOL) else None
         for a, b in zip(r_inv.tolist(), r_anti.tolist())],
        [WitnessError(f"I + T has rank {r}, expected {half}") if r != half
         else None for r in rank])
    B = U[:, :, :half]
    Bt = np.swapaxes(B, 1, 2)
    if grams is not None:
        y_errors, y = _gram_errors(Bt @ grams @ B)
        errors = first_errors(errors, y_errors)
    else:
        y = [None if e else NormedSpace(half, SubspaceNorm(x, b))
             for e, x, b in zip(errors, spaces, B)]
    N = natural_i_operator_matrix(half)
    S = np.concatenate([Bt @ (P @ As), Bt @ P], axis=1)
    S_inv = 0.5 * np.concatenate([-(As @ B), B], axis=2)
    res_s, err_s = _respect_residuals(S, As, N, tol)
    res_inv, err_inv = _respect_residuals(S_inv, N, As, tol)
    errors = first_errors(errors, err_s, err_inv)
    round_dev = np.max(np.abs(S_inv @ S - np.eye(dim)), axis=(1, 2))

    if grams is not None:
        norms = np.stack([
            _singular_values(S, whitening, _whitening_factors(block_diag2(y / 2.0)))[:, 0],
            _singular_values(P, whitening, whitening)[:, 0]], axis=1)
        exact = [True] * len(Ts)
    else:  # rows (||S||, exact, ||I + T||, exact)
        est = np.array([(np.nan, 0.0) * 2 if e else (
            *matrix_norm_between(S[j], spaces[j], natural_i_operator(y[j]).space),
            *matrix_norm_between(P[j], spaces[j], spaces[j])) for j, e in enumerate(errors)])
        norms, exact = est[:, ::2], (est[:, 1] * est[:, 3] > 0).tolist()
    # np.maximum keeps a NaN norm, where max(0.0, nan) would give 0.0
    excess = np.maximum(0.0, norms[:, 0] - norms[:, 1])
    return _Witnesses(B, S, S_inv, (res_s, res_inv), list(y),
                      np.stack([r_inv, r_anti, round_dev, excess], axis=1), norms, exact, errors)


def _witness_report(row: np.ndarray, norms: np.ndarray, exact: bool) -> tuple:
    """The norm bound and the report of one witness, from its row of ROUNDTRIP
    residuals, the norms (||S||, ||I + T||) and whether both are exact.
    The bound holds as the row's norm_excess holds ROUNDTRIP's bound; sampled
    norms are lower bounds, which neither prove nor refute it."""
    residuals = dict(zip(ROUNDTRIP.names, row.tolist()))
    s_norm, p_norm = norms.tolist()
    bound_status = (INCONCLUSIVE if not exact
                    else VERIFIED if residuals["norm_excess"] <= NORM_SLACK else VIOLATED)
    norm_bound = {"S": s_norm, "I_plus_T": p_norm, "exact": exact,
                  "status": bound_status}
    # a nan round_dev fails both tests: a verified bound becomes inconclusive
    round_dev = residuals["inverse_composition"]
    status = bound_status if round_dev <= HYP_TOL else (
        VIOLATED if round_dev > HYP_TOL or bound_status == VIOLATED else INCONCLUSIVE)
    return norm_bound, VerificationReport(
        claim="complexification-witness",
        status=status,
        residuals=residuals,
        witness=None if status == VERIFIED else {"norm_bound": norm_bound},
        tolerances={"hyp_tol": HYP_TOL, "norm_slack": NORM_SLACK},
        seeds={} if exact else {"seed": SAMPLE_SEED})


# ---------------------------------------------------------------------------
# The square-space isomorphism [X (+) X, N_X] ~ [X (+) X, A (+) -A]
# ---------------------------------------------------------------------------

def squares_isomorphism_matrix(A: np.ndarray) -> np.ndarray:
    """(x1, x2) -> (x1 + A x2, x1 - A x2); of each matrix of a stack
    (..., n, n)."""
    n = A.shape[-1]
    out = np.zeros((*A.shape[:-2], 2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, :n] = np.eye(n)
    out[..., :n, n:] = A
    out[..., n:, n:] = -A
    return out


def squares_isomorphism_inverse_matrix(A: np.ndarray) -> np.ndarray:
    """(u, v) -> ((u + v) / 2, -A (u - v) / 2); uses A^2 = -I.  Of each matrix
    of a stack (..., n, n)."""
    n = A.shape[-1]
    out = np.zeros((*A.shape[:-2], 2 * n, 2 * n))
    out[..., :n, :n] = out[..., :n, n:] = np.eye(n) / 2
    out[..., n:, :n] = -A / 2
    out[..., n:, n:] = A / 2
    return out


def split_structure(s: ComplexStructure, *,
                    tol: Tolerances = DEFAULT_TOL) -> ComplexStructure:
    """[X (+) X, A (+) -A] with the sum norm; it inherits s's certificate (see
    structures._split_on)."""
    space2 = direct_sum(s.space, s.space)
    A2 = _split_matrix(s.A)
    certs, errors = _split_on(space2, A2[None], [s.certificate], tol=tol)
    return single(ComplexStructure(space2, A2, certs[0]), errors[0])


def squares_isomorphism(s: ComplexStructure, *,
                        tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """Isomorphism [X (+) X, N_X] -> [X (+) X, A (+) -A]."""
    Ms, certs, res, errors = _squares_isomorphisms(s.space, s.A[None],
                                                   [s.certificate], tol=tol)
    square = ComplexStructure(direct_sum(s.space, s.space),
                              _split_matrix(s.A), certs[0])
    return single(RespectingOperator(natural_i_operator(s.space), square, Ms[0],
                                     res[0]), errors[0])


def _squares_isomorphisms(space: NormedSpace, As: np.ndarray,
                          certificates: Sequence, *, tol: Tolerances) -> tuple:
    """squares_isomorphism of each structure [space, A] of a stack As
    (k, n, n), certified by certificates: the stack of the matrices, the
    certificates of the sum-norm squares [X (+) X, A (+) -A], the respect
    residuals, and the error of each item that fails (None where it holds)."""
    A2s = _split_matrix(As)
    certs, split_errors = _split_on(direct_sum(space, space), A2s,
                                    certificates, tol=tol)
    Ms = squares_isomorphism_matrix(As)
    res, respect_errors = _respect_residuals(
        Ms, natural_i_operator_matrix(space.dim), A2s, tol)
    return Ms, certs, res, first_errors(split_errors, respect_errors)


def verify_squares_isomorphism(s: ComplexStructure, *,
                               tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    R, errors = _squares_residuals(s.space, s.A[None], [s.certificate], tol=tol)
    return single(_squares_check(tol).report(R[0], {"A": s.A.tolist()}), errors[0])


def _squares_check(tol: Tolerances) -> _Residuals:
    return _Residuals("square-space-isomorphism", ("respect", "inverse_composition"),
                      np.array([tol.tol_alg, 1e-12]),
                      {"respect": tol.tol_alg, "inverse": 1e-12})


def _squares_residuals(space: NormedSpace, As: np.ndarray, certificates: Sequence,
                       *, tol: Tolerances) -> tuple:
    """verify_squares_isomorphism of each structure [space, A] of a stack As
    (k, n, n), certified by certificates: its row of _squares_check residuals,
    and the error of each whose isomorphism fails (None where it holds)."""
    Ms, _, res, errors = _squares_isomorphisms(space, As, certificates, tol=tol)
    inv = squares_isomorphism_inverse_matrix(As)
    eye = np.eye(Ms.shape[-1])
    dev = np.maximum(np.max(np.abs(inv @ Ms - eye), axis=(1, 2)),
                     np.max(np.abs(Ms @ inv - eye), axis=(1, 2)))
    return np.stack([res, dev], axis=1), errors


# ---------------------------------------------------------------------------
# Cartesian-square factorization identities
# ---------------------------------------------------------------------------

def verify_real_cartesian_identities(T) -> VerificationReport:
    """T = Q1 (T (+) T) J1 and T (+) T = J1 T Q1 + J2 T Q2, as exact matrix
    equalities for an arbitrary rectangular T."""
    T = np.asarray(T, dtype=float)
    return REAL_CARTESIAN.report(_real_cartesian_residuals(T[None])[0],
                                 {"shape": list(T.shape)})


def _cartesian_deviations(Ts: np.ndarray, j1x, q1x, q2x, j1y, j2y, q1y) -> tuple:
    """T (+) T of each matrix of a stack Ts (k, m, n), and the max-entry
    deviations from T = Q1 (T (+) T) J1 and T (+) T = J1 T Q1 + J2 T Q2, given
    the injections j and surjections q of the domain's double (x, dimension n)
    and of the codomain's (y, dimension m)."""
    TT = block_diag2(Ts)
    restriction = np.max(np.abs(Ts - q1y @ TT @ j1x), axis=(1, 2))
    reassembly = np.max(np.abs(TT - (j1y @ Ts @ q1x + j2y @ Ts @ q2x)), axis=(1, 2))
    return TT, restriction, reassembly


REAL_CARTESIAN = _Residuals("real-cartesian-identities", ("restriction", "reassembly"),
                            np.zeros(2), {"deviation": 0.0})


def _real_cartesian_residuals(Ts: np.ndarray) -> np.ndarray:
    """The rows of REAL_CARTESIAN residuals of a stack of matrices (k, m, n)."""
    m, n = Ts.shape[1:]
    return np.stack(_cartesian_deviations(
        Ts, injection_first(n), surjection_first(n), surjection_second(n),
        injection_first(m), injection_second(m), surjection_first(m))[1:], axis=1)


def verify_complex_cartesian_identities(op: RespectingOperator, *,
                                        tol: Tolerances = DEFAULT_TOL,
                                        corrupt_annotation: bool = False
                                        ) -> VerificationReport:
    """The three annotated factorizations through the split structures.

    1. T = Q1 (T (+) T) J1 with J1 : (A, A(+)-A), T(+)T : (A(+)-A, B(+)-B),
       Q1 : (B(+)-B, B).
    2. T (+) T = J1 T Q1 + J2 T Q2, the second summand running through the
       conjugated operator.
    3. T = Q2 (T (+) T) J2 with the conjugated annotations (-A, -B).

    With corrupt_annotation=True the J2 factor is deliberately annotated as
    respecting (A, A(+)-A); the report then records the violation witness.
    """
    R = _complex_cartesian_residuals(_fitted_matrix(op)[None], op.domain.A[None],
                                     op.codomain.A[None], corrupt_annotation)
    return _complex_cartesian_check(tol, corrupt_annotation).report(R[0])


_RESPECTS = ("J1_X(A,split)", "TT(split,split)", "Q1_Y(split,B)", "Q1_X(split,A)",
             "J1_Y(B,split)", "T(A,B)", "Q2_X(split,-A)", "T(-A,-B)", "J2_Y(-B,split)",
             "J2_X(-A,split)", "Q2_Y(split,-B)")


def _complex_cartesian_check(tol: Tolerances, corrupt_annotation: bool) -> _Residuals:
    # the wrong claim that J2 respects (A, A (+) -A) comes last
    respects = _RESPECTS + ("J2_X(A,split)",) * corrupt_annotation
    return _Residuals("complex-cartesian-identities",
                      respects + ("restriction", "reassembly", "conjugate_restriction"),
                      np.repeat([tol.tol_alg, tol.abs_tol], [len(respects), 3]),
                      {"respect": tol.tol_alg, "deviation": tol.abs_tol})


def _complex_cartesian_residuals(Ts: np.ndarray, As: np.ndarray, Bs: np.ndarray,
                                 corrupt_annotation: bool) -> np.ndarray:
    """The rows of _complex_cartesian_check residuals of each [T, A, B] of the
    stacks Ts (k, m, n), As (k, n, n) and Bs (k, m, m)."""
    A2, B2 = _split_matrix(As), _split_matrix(Bs)
    maps = (injection_first, injection_second, surjection_first, surjection_second)
    j1x, j2x, q1x, q2x = (f(As.shape[-1]) for f in maps)
    j1y, j2y, q1y, q2y = (f(Bs.shape[-1]) for f in maps)
    TT, restriction, reassembly = _cartesian_deviations(Ts, j1x, q1x, q2x, j1y, j2y, q1y)
    respects = [(j1x, As, A2), (TT, A2, B2), (q1y, B2, Bs), (q1x, A2, As), (j1y, Bs, B2),
                (Ts, As, Bs), (q2x, A2, -As), (Ts, -As, -Bs), (j2y, -Bs, B2),
                (j2x, -As, A2), (q2y, B2, -Bs)] + [(j2x, As, A2)] * corrupt_annotation
    # each the residual of _respect_residuals, whose errors nothing here raises
    return np.stack([*(np.max(np.abs(L @ Adom - Acod @ L), axis=(1, 2))
                       for L, Adom, Acod in respects),
                     restriction, reassembly,
                     np.max(np.abs(Ts - q2y @ TT @ j2x), axis=(1, 2))], axis=1)


# ---------------------------------------------------------------------------
# Transform roundtrips at the oracle level
# ---------------------------------------------------------------------------

def _mismatches(direct: np.ndarray, back: np.ndarray) -> list:
    """The witness entry of each index where the two decisions differ."""
    return [{"index": int(i), "direct": bool(direct[i]), "unfolded": bool(back[i])}
            for i in np.flatnonzero(direct != back)]


def verify_theorem_real(oracle, corpus: Sequence) -> VerificationReport:
    """Unfold real -> complex -> real and compare decisions on the corpus.

    The corpus is a GroupedCorpus or a sequence of RealOperators, grouped
    once for both decisions.  The unfolded oracle queries the doubled matrix
    between the complexified spaces.
    """
    unfolded = realify_ideal(complexify_ideal(oracle))
    corpus = _grouped_corpus(corpus, "real")
    direct = decide_real(oracle, corpus)
    back = decide_real(unfolded, corpus)
    mismatches = _mismatches(direct, back)
    return bounded("real-ideal-roundtrip", not mismatches,
                   {"mismatches": float(len(mismatches))}, witness=mismatches,
                   notes=[DECISION_NOTE])


def verify_theorem_complex(oracle, corpus: Sequence, *,
                           self_conjugate: Optional[bool] = None
                           ) -> VerificationReport:
    """Unfold complex -> real -> complex; check inclusion on the corpus, and
    equality when the oracle passes the self-conjugacy audit.

    The unfolded decision queries [T (+) T, N_X, N_Y]; moving between the
    natural i-operator and the split structure on the doubled matrix is
    decision-neutral for the oracles shipped here (they depend on the matrix
    and the ambient norms only), mirroring the square-space isomorphism.
    Without self_conjugate the audit runs, whose averaged squares need a
    corpus over spaces with a Gram or planes; any other corpus raises
    StructureValidationError at once (see structures._split_on).  Its squares
    T (+) T map between the spaces of the unfolded ones (natural_i_operator(X)
    .space is X's averaged double), so it decides the unfolded operators of an
    oracle that reads no structure.  The corpus is a GroupedCorpus or a
    sequence of RespectingOperators, grouped once for all decisions.
    """
    unfolded = complexify_ideal(realify_ideal(oracle))
    corpus = _grouped_corpus(corpus, "complex")
    direct = _members(oracle, corpus.groups)
    square = None
    if self_conjugate is None:
        audit, square = _audit(oracle, corpus, direct, tol=DEFAULT_TOL)
        self_conjugate = audit.ok
    back = (square if square is not None and not _reads_structures(oracle)
            else _members(unfolded, corpus.groups))
    inclusion_violations = [{"index": int(i)}
                            for i in np.flatnonzero(back & ~direct)]
    equality_mismatches = _mismatches(direct, back) if self_conjugate else []
    return bounded(
        "complex-ideal-roundtrip", not (inclusion_violations or equality_mismatches),
        {"inclusion_violations": float(len(inclusion_violations)),
         "equality_mismatches": float(len(equality_mismatches))},
        witness={"inclusion": inclusion_violations, "equality": equality_mismatches},
        notes=[f"audited self-conjugate: {self_conjugate}", DECISION_NOTE])
