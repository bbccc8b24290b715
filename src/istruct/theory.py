"""Executable constructions: complexification witnesses, the square-space
isomorphism, the Cartesian-square factorization identities, and the
real/complex transform roundtrip checks for membership oracles.

The witnesses, squares and identities are checked a shape group at a time:
each has a private kernel over stacks of k items of one shape (matrices, and
the certificates squares inherit) that makes every check of its single-item
function and returns, per item, the values and the error the single-item call
would raise (None if it passes).  The public single-item function is the
kernel's call with k = 1, unwrapped by errors.single, and alone builds its
structure or operator objects.  A caller that stacks a corpus raises the
error of its first failing item in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, SAMPLE_SEED, Tolerances
from .errors import WitnessError, first_errors, single
from .ideals import (DECISION_NOTE, _audit, _grouped_corpus, _members,
                     complexify_ideal, decide_real, realify_ideal)
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

HYP_TOL = 1e-8  # residuals of T as an anticommuting involution, and of S^-1 S - I
NORM_SLACK = 1e-6  # how far ||S|| may exceed ||I + T||


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
                     f"residuals ({a:.3e}, {b:.3e})") if max(a, b) > tol else None
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
    report = single(w.outcomes[0], w.errors[0])
    y = w.y[0]
    ny = natural_i_operator(y if isinstance(y, NormedSpace)
                            else NormedSpace(dim // 2, EuclideanQuadratic(y)))
    return ComplexificationWitness(
        T, w.B[0], RespectingOperator(s, ny, w.S[0], w.respect[0][0]),
        RespectingOperator(ny, s, w.S_inverse[0], w.respect[1][0]),
        w.norm_bounds[0], report)


class _Witnesses(NamedTuple):
    """build_complexification_witness of each item of a stack: the stacks of
    Y's bases and of S and S^-1, the respect residuals of S and S^-1, Y's Gram
    (or Y itself when X is not Euclidean-like), the norm bound and the report
    or the error of each item."""

    B: np.ndarray
    S: np.ndarray
    S_inverse: np.ndarray
    respect: tuple
    y: list
    norm_bounds: list
    outcomes: list
    errors: list


def _witnesses(As: np.ndarray, Ts: np.ndarray, grams: Optional[np.ndarray],
               whitening: Optional[tuple], spaces: Sequence[NormedSpace], *,
               tol: Tolerances) -> _Witnesses:
    """The witnesses for k structures [X_j, A_j] of one dimension n and their
    involutions T_j, stacked (k, n, n).  For Euclidean-like X_j, grams stacks
    their Grams and whitening is their _whitening_factors; otherwise both are
    None, Y_j is built and the norms are estimated item by item on the X_j."""
    dim = Ts.shape[-1]
    half = dim // 2
    r_inv, r_anti = (r.tolist() for r in _involution_residuals(Ts, As))
    P = np.eye(dim) + Ts
    U, sv, _ = np.linalg.svd(P)
    rank = np.sum(sv > RANK_RTOL * sv[:, :1], axis=1)
    errors = first_errors(
        [WitnessError(f"T is not an anticommuting involution (residuals "
                      f"{a:.3e}, {b:.3e})") if max(a, b) > HYP_TOL else None
         for a, b in zip(r_inv, r_anti)],
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
    round_dev = np.max(np.abs(S_inv @ S - np.eye(dim)), axis=(1, 2)).tolist()

    if grams is not None:
        s_norms = _singular_values(S, whitening, _whitening_factors(block_diag2(y / 2.0)))
        p_norms = _singular_values(P, whitening, whitening)
    norm_bounds, outcomes = [], []
    for j, error in enumerate(errors):
        if error is not None:
            norm_bound = report = None
        elif grams is not None:
            norm_bound, report = _witness_report(
                r_inv[j], r_anti[j], round_dev[j], (float(s_norms[j, 0]), True),
                (float(p_norms[j, 0]), True))
        else:
            norm_bound, report = _witness_report(
                r_inv[j], r_anti[j], round_dev[j],
                matrix_norm_between(S[j], spaces[j], natural_i_operator(y[j]).space),
                matrix_norm_between(P[j], spaces[j], spaces[j]))
        norm_bounds.append(norm_bound)
        outcomes.append(report)
    return _Witnesses(B, S, S_inv, (res_s, res_inv), list(y), norm_bounds,
                      outcomes, errors)


def _witness_report(r_inv, r_anti, round_dev, s_est: tuple, p_est: tuple) -> tuple:
    """The norm bound and the report of one witness, from its residuals and
    the (value, exact) norms of S and of I + T.  Sampled norms are lower
    bounds, which neither prove nor refute ||S|| <= ||I + T||."""
    (s_norm, s_exact), (p_norm, p_exact) = s_est, p_est
    exact = s_exact and p_exact
    bound_status = (INCONCLUSIVE if not exact
                    else VERIFIED if s_norm <= p_norm + NORM_SLACK else VIOLATED)
    norm_bound = {"S": s_norm, "I_plus_T": p_norm, "exact": exact,
                  "status": bound_status}
    # a nan round_dev fails both tests: a verified bound becomes inconclusive
    status = bound_status if round_dev <= HYP_TOL else (
        VIOLATED if round_dev > HYP_TOL or bound_status == VIOLATED else INCONCLUSIVE)
    return norm_bound, VerificationReport(
        claim="complexification-witness",
        status=status,
        residuals={"involution": r_inv, "anticommutation": r_anti,
                   "inverse_composition": round_dev,
                   "norm_excess": max(0.0, s_norm - p_norm)},
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


def split_structure(s: ComplexStructure, *, tol: Tolerances = DEFAULT_TOL,
                    mode: str = "sum") -> ComplexStructure:
    """[X (+) X, A (+) -A] with the sum norm (or the averaged norm).

    A rotation turns the first half by cos t I + sin t A and the second by
    cos t I - sin t A, each an isometry of X.  So with the sum norm the pair
    inherits s's certificate, a witness x lifted to (x, 0).  On the averaged
    norm A (+) -A is an i-operator iff X's norm comes from an inner product,
    so it inherits only where that is proved: X has a Gram, or X is a plane
    (A = PJP^-1 makes P^-1 of its unit ball a disc).  Any other X is refused.
    """
    space2 = direct_sum(s.space, s.space, mode)
    A2 = _split_matrix(s.A)
    certs, errors = _split_on(space2, A2[None], [s.certificate], tol=tol)
    return single(ComplexStructure(space2, A2, certs[0]), errors[0])


def squares_isomorphism(s: ComplexStructure, *,
                        tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """Isomorphism [X (+) X, N_X] -> [X (+) X, A (+) -A]."""
    Ms, certs, res, errors = _squares_isomorphisms(s.space, s.A[None],
                                                   [s.certificate], tol=tol)
    square = ComplexStructure(direct_sum(s.space, s.space, "sum"),
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
    certs, split_errors = _split_on(direct_sum(space, space, "sum"), A2s,
                                    certificates, tol=tol)
    Ms = squares_isomorphism_matrix(As)
    res, respect_errors = _respect_residuals(
        Ms, natural_i_operator_matrix(space.dim), A2s, tol)
    return Ms, certs, res, first_errors(split_errors, respect_errors)


def verify_squares_isomorphism(s: ComplexStructure, *,
                               tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    reports, errors = _squares_reports(s.space, s.A[None], [s.certificate], tol=tol)
    return single(reports[0], errors[0])


def _squares_reports(space: NormedSpace, As: np.ndarray, certificates: Sequence,
                     *, tol: Tolerances) -> tuple:
    """verify_squares_isomorphism of each structure [space, A] of a stack As
    (k, n, n), certified by certificates: the reports, and the error of each
    whose isomorphism fails (None where it holds)."""
    Ms, _, res, errors = _squares_isomorphisms(space, As, certificates, tol=tol)
    inv = squares_isomorphism_inverse_matrix(As)
    eye = np.eye(Ms.shape[-1])
    dev = np.maximum(np.max(np.abs(inv @ Ms - eye), axis=(1, 2)),
                     np.max(np.abs(Ms @ inv - eye), axis=(1, 2))).tolist()
    return [None if e else bounded(
        "square-space-isomorphism", r <= tol.tol_alg and d <= 1e-12,
        {"respect": r, "inverse_composition": d},
        {"respect": tol.tol_alg, "inverse": 1e-12}, {"A": A.tolist()})
        for e, r, d, A in zip(errors, res, dev, As)], errors


# ---------------------------------------------------------------------------
# Cartesian-square factorization identities
# ---------------------------------------------------------------------------

def verify_real_cartesian_identities(T) -> VerificationReport:
    """T = Q1 (T (+) T) J1 and T (+) T = J1 T Q1 + J2 T Q2, as exact matrix
    equalities for an arbitrary rectangular T."""
    return _real_cartesian_reports(np.asarray(T, dtype=float)[None])[0]


def _cartesian_deviations(Ts: np.ndarray) -> tuple:
    """T (+) T of each matrix of a stack Ts (k, m, n), and the max-entry
    deviations from T = Q1 (T (+) T) J1 and T (+) T = J1 T Q1 + J2 T Q2."""
    m, n = Ts.shape[1:]
    TT = block_diag2(Ts)
    restriction = np.max(np.abs(
        Ts - surjection_first(m) @ TT @ injection_first(n)), axis=(1, 2))
    reassembly = np.max(np.abs(
        TT - (injection_first(m) @ Ts @ surjection_first(n)
              + injection_second(m) @ Ts @ surjection_second(n))), axis=(1, 2))
    return TT, restriction, reassembly


def _real_cartesian_reports(Ts: np.ndarray) -> list:
    """verify_real_cartesian_identities of each matrix of a stack (k, m, n)."""
    _, dev1, dev2 = _cartesian_deviations(Ts)
    return [bounded("real-cartesian-identities", max(d1, d2) == 0.0,
                    {"restriction": d1, "reassembly": d2}, {"deviation": 0.0},
                    {"shape": list(Ts.shape[1:])})
            for d1, d2 in zip(dev1.tolist(), dev2.tolist())]


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
    return _complex_cartesian_reports(
        _fitted_matrix(op)[None], op.domain.A[None], op.codomain.A[None], tol=tol,
        corrupt_annotation=corrupt_annotation)[0]


def _complex_cartesian_reports(Ts: np.ndarray, As: np.ndarray, Bs: np.ndarray, *,
                               tol: Tolerances, corrupt_annotation: bool) -> list:
    """verify_complex_cartesian_identities of each [T, A, B] of the stacks
    Ts (k, m, n), As (k, n, n) and Bs (k, m, m)."""
    n, m = As.shape[-1], Bs.shape[-1]
    A2, B2 = _split_matrix(As), _split_matrix(Bs)
    TT, restriction, reassembly = _cartesian_deviations(Ts)
    j1x, j2x = injection_first(n), injection_second(n)
    q1x, q2x = surjection_first(n), surjection_second(n)
    j1y, j2y = injection_first(m), injection_second(m)
    q1y, q2y = surjection_first(m), surjection_second(m)

    def rr(L, Adom, Acod):
        return _respect_residuals(L, Adom, Acod, tol)[0]

    residuals = {
        "J1_X(A,split)": rr(j1x, As, A2),
        "TT(split,split)": rr(TT, A2, B2),
        "Q1_Y(split,B)": rr(q1y, B2, Bs),
        "Q1_X(split,A)": rr(q1x, A2, As),
        "J1_Y(B,split)": rr(j1y, Bs, B2),
        "T(A,B)": rr(Ts, As, Bs),
        "Q2_X(split,-A)": rr(q2x, A2, -As),
        "T(-A,-B)": rr(Ts, -As, -Bs),
        "J2_Y(-B,split)": rr(j2y, -Bs, B2),
        "J2_X(-A,split)": rr(j2x, -As, A2),
        "Q2_Y(split,-B)": rr(q2y, B2, -Bs),
    }
    if corrupt_annotation:
        # wrong claim: J2 respects (A, A (+) -A)
        residuals["J2_X(A,split)"] = rr(j2x, As, A2)
    deviations = {
        "restriction": restriction, "reassembly": reassembly,
        "conjugate_restriction": np.max(np.abs(Ts - q2y @ TT @ j2x), axis=(1, 2))}

    reports = []
    for res_row, dev_row in zip(np.stack(list(residuals.values()), axis=1).tolist(),
                                np.stack(list(deviations.values()), axis=1).tolist()):
        res = dict(zip(residuals, res_row))
        devs = dict(zip(deviations, dev_row))
        bad = {key: v for key, v in res.items() if v > tol.tol_alg}
        bad_dev = {key: v for key, v in devs.items() if v > tol.abs_tol}
        reports.append(bounded(
            "complex-cartesian-identities", not bad and not bad_dev, {**res, **devs},
            {"respect": tol.tol_alg, "deviation": tol.abs_tol},
            {"failed": {**bad, **bad_dev}}))
    return reports


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
    StructureValidationError at once (see split_structure).  The corpus is a
    GroupedCorpus or a sequence of RespectingOperators, grouped once for the
    audit and both decisions.
    """
    unfolded = complexify_ideal(realify_ideal(oracle))
    corpus = _grouped_corpus(corpus, "complex")
    direct = _members(oracle, corpus.groups)
    if self_conjugate is None:
        self_conjugate = _audit(oracle, corpus, direct, tol=DEFAULT_TOL).ok
    back = _members(unfolded, corpus.groups)
    inclusion_violations = [{"index": int(i)}
                            for i in np.flatnonzero(back & ~direct)]
    equality_mismatches = _mismatches(direct, back) if self_conjugate else []
    return bounded(
        "complex-ideal-roundtrip", not (inclusion_violations or equality_mismatches),
        {"inclusion_violations": float(len(inclusion_violations)),
         "equality_mismatches": float(len(equality_mismatches))},
        witness={"inclusion": inclusion_violations, "equality": equality_mismatches},
        notes=[f"audited self-conjugate: {self_conjugate}", DECISION_NOTE])
