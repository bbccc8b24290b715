"""Executable constructions: complexification witnesses, the square-space
isomorphism, the Cartesian-square factorization identities, and the
real/complex transform roundtrip checks for membership oracles.

The witnesses, squares and identities are checked a shape group at a time:
each has a private kernel over stacks of k items of one shape that makes every
check of its single-item function and returns, per item, the result and the
error the single-item call would raise (None if it passes).  The public
single-item function is the kernel's call with k = 1.  A caller that stacks a
corpus raises the error of its first failing item in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DescriptorError, WitnessError, first_errors
from .ideals import (_audit, _grouped, _members, complexify_ideal, decide_real,
                     realify_ideal)
from .morphisms import (RANK_RTOL, RespectingOperator, _inverses,
                        _respect_residuals, _split_matrix, _whitened,
                        block_diag2, injection_first, injection_second,
                        matrix_norm_between, surjection_first,
                        surjection_second)
from .report import INCONCLUSIVE, VERIFIED, VIOLATED, VerificationReport
from .spaces import (EuclideanQuadratic, NormedSpace, Polyhedral, SubspaceNorm,
                     _doubled_gram, _gram_defects, direct_sum, euclidean_gram)
from .structures import (ComplexStructure, _split_on, natural_i_operator,
                         natural_i_operator_matrix)

HYP_TOL = 1e-8  # residuals of T as an anticommuting involution


# ---------------------------------------------------------------------------
# Complexification witnesses (anticommuting involutions)
# ---------------------------------------------------------------------------

def conjugation_matrix(m: int) -> np.ndarray:
    """(y1, y2) -> (y1, -y2) on a doubled space of half-dimension m."""
    C = np.eye(2 * m)
    C[m:, m:] *= -1.0
    return C


def extract_conjugation(iso: RespectingOperator, *,
                        tol: float = 1e-9) -> np.ndarray:
    """From an isomorphism onto a doubled space with its natural i-operator,
    produce the anticommuting involution T = S^{-1} C S on the domain.

    Verifies T^2 = I and T A = -A T within tol.
    """
    S = iso.matrix
    if S.shape[0] != S.shape[1]:
        raise WitnessError("map is not invertible (non-square)")
    Ts, errors = _conjugations(S[None], iso.domain.A, iso.codomain.A, tol=tol)
    return _single(Ts[0], errors[0])


def _single(value, error):
    """The value of a one-item kernel call, or its error raised."""
    if error is not None:
        raise error
    return value


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


def _induced_subspace(space: NormedSpace, basis: np.ndarray) -> NormedSpace:
    """The subspace spanned by the basis columns, with the restricted norm,
    of a space that is not Euclidean-like."""
    m = basis.shape[1]
    if isinstance(space.norm_desc, Polyhedral):
        return NormedSpace(m, Polyhedral(space.norm_desc.functionals @ basis))
    return NormedSpace(m, SubspaceNorm(space, basis))


def build_complexification_witness(s: ComplexStructure, T, *,
                                   tol: Tolerances = DEFAULT_TOL,
                                   norm_samples: int = 2000,
                                   seed: int = 0) -> ComplexificationWitness:
    """Realize [X, A] as the doubled space over Y = {x + Tx}.

    The forward map is x -> (Ax + TAx, x + Tx) in Y-coordinates; the inverse
    is (y1, y2) -> (y2 - A y1) / 2 read back through the basis.
    """
    dim = s.space.dim
    T = np.asarray(T, dtype=float)
    if T.shape != (dim, dim):
        raise WitnessError(f"T must be {dim} x {dim}, got {T.shape}")
    gram = euclidean_gram(s.space)
    w = _witnesses(s.A[None], T[None], None if gram is None else gram[None],
                   [s.space], tol=tol, norm_samples=norm_samples, seed=seed)
    report = _single(w.outcomes[0], w.errors[0])
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
               spaces: Sequence[NormedSpace], *, tol: Tolerances,
               norm_samples: int, seed: int) -> _Witnesses:
    """The witnesses for k structures [X_j, A_j] of one dimension n and their
    involutions T_j, stacked (k, n, n).  grams stacks the X_j's Grams when they
    are Euclidean-like, and is None otherwise; then Y_j is built and the norms
    are estimated item by item on the spaces X_j."""
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
        y = Bt @ grams @ B
        errors = first_errors(errors, [None if d is None else DescriptorError(d)
                                        for d in _gram_defects(y)])
    else:
        y = [None if e else _induced_subspace(x, b)
             for e, x, b in zip(errors, spaces, B)]
    N = natural_i_operator_matrix(half)
    S = np.concatenate([Bt @ (P @ As), Bt @ P], axis=1)
    S_inv = 0.5 * np.concatenate([-(As @ B), B], axis=2)
    res_s, err_s = _respect_residuals(S, As, N, tol)
    res_inv, err_inv = _respect_residuals(S_inv, N, As, tol)
    errors = first_errors(errors, err_s, err_inv)
    round_dev = np.max(np.abs(S_inv @ S - np.eye(dim)), axis=(1, 2)).tolist()

    if grams is not None:
        s_norms = np.linalg.svd(_whitened(S, grams, _doubled_gram(y)),
                                compute_uv=False)[:, 0].tolist()
        p_norms = np.linalg.svd(_whitened(P, grams, grams),
                                compute_uv=False)[:, 0].tolist()
    norm_bounds, outcomes = [], []
    for j, error in enumerate(errors):
        if error is not None:
            norm_bound = report = None
        elif grams is not None:
            norm_bound, report = _witness_report(
                r_inv[j], r_anti[j], round_dev[j], (s_norms[j], True),
                (p_norms[j], True), seed=seed)
        else:
            norm_bound, report = _witness_report(
                r_inv[j], r_anti[j], round_dev[j],
                matrix_norm_between(S[j], spaces[j], natural_i_operator(y[j]).space,
                                    samples=norm_samples, seed=seed),
                matrix_norm_between(P[j], spaces[j], spaces[j],
                                    samples=norm_samples, seed=seed),
                seed=seed)
        norm_bounds.append(norm_bound)
        outcomes.append(report)
    return _Witnesses(B, S, S_inv, (res_s, res_inv), list(y), norm_bounds,
                      outcomes, errors)


def _witness_report(r_inv, r_anti, round_dev, s_est: tuple, p_est: tuple, *,
                    seed: int) -> tuple:
    """The norm bound and the report of one witness, from its residuals and
    the (value, exact) norms of S and of I + T."""
    (s_norm, s_exact), (p_norm, p_exact) = s_est, p_est
    exact = s_exact and p_exact
    if s_norm <= p_norm + 1e-6:
        bound_status = VERIFIED
    elif exact:
        bound_status = VIOLATED
    else:
        # the sampled estimates are one-sided lower bounds; without exact
        # values an apparent excess is not a refutation
        bound_status = INCONCLUSIVE
    norm_bound = {"S": s_norm, "I_plus_T": p_norm, "exact": exact,
                  "status": bound_status}
    status = VERIFIED if (bound_status == VERIFIED and round_dev <= 1e-8) \
        else (VIOLATED if bound_status == VIOLATED or round_dev > 1e-8
              else INCONCLUSIVE)
    return norm_bound, VerificationReport(
        claim="complexification-witness",
        status=status,
        residuals={"involution": r_inv, "anticommutation": r_anti,
                   "inverse_composition": round_dev,
                   "norm_excess": max(0.0, s_norm - p_norm)},
        witness=None if status == VERIFIED else {"norm_bound": norm_bound},
        tolerances={"hyp_tol": HYP_TOL, "norm_slack": 1e-6},
        seeds={} if exact else {"seed": seed})


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
    inherits s's certificate, a witness x lifted to (x, 0).  The averaged norm
    keeps the argument only on a Euclidean-like X, where its Gram is
    diag(G, G) / 2; elsewhere the pair is validated by sampling and is in
    general not an i-operator (on X = l2^2 (+)_1 l2^2 with J (+) J the isometry
    residual is 7.9e-2), so the averaged square needs Euclidean-like X.
    """
    split, errors = _split_on(direct_sum(s.space, s.space, mode), [s],
                              _split_matrix(s.A[None]), tol=tol)
    return _single(split[0], errors[0])


def squares_isomorphism(s: ComplexStructure, *,
                        tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """Isomorphism [X (+) X, N_X] -> [X (+) X, A (+) -A]."""
    _, ops, errors = _squares_isomorphisms([s], tol=tol)
    return _single(ops[0], errors[0])


def _squares_isomorphisms(structures: Sequence[ComplexStructure], *,
                          tol: Tolerances) -> tuple:
    """squares_isomorphism of each structure, all on one space X: the stack of
    the matrices, the operators, and the error of each that fails (None where
    it holds).  N_X and the doubled space are built once."""
    space = structures[0].space
    As = np.stack([s.A for s in structures])
    A2s = _split_matrix(As)
    dom = natural_i_operator(space)
    cods, split_errors = _split_on(direct_sum(space, space, "sum"), structures,
                                   A2s, tol=tol)
    Ms = squares_isomorphism_matrix(As)
    res, respect_errors = _respect_residuals(Ms, dom.A, A2s, tol)
    errors = first_errors(split_errors, respect_errors)
    return Ms, [None if e else RespectingOperator(dom, c, M, r)
                for e, c, M, r in zip(errors, cods, Ms, res)], errors


def verify_squares_isomorphism(s: ComplexStructure, *,
                               tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    reports, errors = _squares_reports([s], tol=tol)
    return _single(reports[0], errors[0])


def _squares_reports(structures: Sequence[ComplexStructure], *,
                     tol: Tolerances) -> tuple:
    """verify_squares_isomorphism of each structure, all on one space: the
    reports, and the error of each whose isomorphism fails (None where it
    holds)."""
    Ms, ops, errors = _squares_isomorphisms(structures, tol=tol)
    inv = squares_isomorphism_inverse_matrix(np.stack([s.A for s in structures]))
    eye = np.eye(Ms.shape[-1])
    dev = np.maximum(np.max(np.abs(inv @ Ms - eye), axis=(1, 2)),
                     np.max(np.abs(Ms @ inv - eye), axis=(1, 2))).tolist()
    reports = []
    for s, op, d in zip(structures, ops, dev):
        if op is None:
            reports.append(None)
            continue
        status = VERIFIED if (op.respect_residual <= tol.tol_alg
                              and d <= 1e-12) else VIOLATED
        reports.append(VerificationReport(
            claim="square-space-isomorphism", status=status,
            residuals={"respect": op.respect_residual,
                       "inverse_composition": d},
            witness=None if status == VERIFIED else {"A": s.A.tolist()},
            tolerances={"respect": tol.tol_alg, "inverse": 1e-12}))
    return reports, errors


# ---------------------------------------------------------------------------
# Cartesian-square factorization identities
# ---------------------------------------------------------------------------

def verify_real_cartesian_identities(T) -> VerificationReport:
    """T = Q1 (T (+) T) J1 and T (+) T = J1 T Q1 + J2 T Q2, as exact matrix
    equalities for an arbitrary rectangular T."""
    return _real_cartesian_reports(np.asarray(T, dtype=float)[None])[0]


def _real_cartesian_reports(Ts: np.ndarray) -> list:
    """verify_real_cartesian_identities of each matrix of a stack (k, m, n)."""
    m, n = Ts.shape[1:]
    TT = block_diag2(Ts)
    dev1 = np.max(np.abs(Ts - surjection_first(m) @ TT @ injection_first(n)),
                  axis=(1, 2))
    dev2 = np.max(np.abs(
        TT - (injection_first(m) @ Ts @ surjection_first(n)
              + injection_second(m) @ Ts @ surjection_second(n))), axis=(1, 2))
    reports = []
    for d1, d2 in zip(dev1.tolist(), dev2.tolist()):
        status = VERIFIED if max(d1, d2) == 0.0 else VIOLATED
        reports.append(VerificationReport(
            claim="real-cartesian-identities", status=status,
            residuals={"restriction": d1, "reassembly": d2},
            witness=None if status == VERIFIED else {"shape": [m, n]},
            tolerances={"deviation": 0.0}))
    return reports


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
        op.matrix[None], op.domain.A[None], op.codomain.A[None], tol=tol,
        corrupt_annotation=corrupt_annotation)[0]


def _complex_cartesian_reports(Ts: np.ndarray, As: np.ndarray, Bs: np.ndarray, *,
                               tol: Tolerances, corrupt_annotation: bool) -> list:
    """verify_complex_cartesian_identities of each [T, A, B] of the stacks
    Ts (k, m, n), As (k, n, n) and Bs (k, m, m)."""
    n, m = As.shape[-1], Bs.shape[-1]
    A2, B2 = _split_matrix(As), _split_matrix(Bs)
    TT = block_diag2(Ts)
    j1x, j2x = injection_first(n), injection_second(n)
    q1x, q2x = surjection_first(n), surjection_second(n)
    j1y, j2y = injection_first(m), injection_second(m)
    q1y, q2y = surjection_first(m), surjection_second(m)

    def rr(L, Adom, Acod):
        return np.max(np.abs(L @ Adom - Acod @ L), axis=(1, 2))

    def dev(D):
        return np.max(np.abs(D), axis=(1, 2))

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
        "restriction": dev(Ts - q1y @ TT @ j1x),
        "reassembly": dev(TT - (j1y @ Ts @ q1x + j2y @ Ts @ q2x)),
        "conjugate_restriction": dev(Ts - q2y @ TT @ j2x)}

    reports = []
    for res_row, dev_row in zip(np.stack(list(residuals.values()), axis=1).tolist(),
                                np.stack(list(deviations.values()), axis=1).tolist()):
        res = dict(zip(residuals, res_row))
        devs = dict(zip(deviations, dev_row))
        bad = {key: v for key, v in res.items() if v > tol.tol_alg}
        bad_dev = {key: v for key, v in devs.items() if v > tol.abs_tol}
        status = VERIFIED if not bad and not bad_dev else VIOLATED
        reports.append(VerificationReport(
            claim="complex-cartesian-identities", status=status,
            residuals={**res, **devs},
            witness=None if status == VERIFIED else {"failed": {**bad, **bad_dev}},
            tolerances={"respect": tol.tol_alg, "deviation": tol.abs_tol}))
    return reports


# ---------------------------------------------------------------------------
# Transform roundtrips at the oracle level
# ---------------------------------------------------------------------------

def verify_theorem_real(oracle, corpus: Sequence) -> VerificationReport:
    """Unfold real -> complex -> real and compare decisions on the corpus.

    Each corpus item is a RealOperator.  The unfolded oracle queries the
    doubled matrix between the complexified spaces.
    """
    unfolded = realify_ideal(complexify_ideal(oracle))
    direct = decide_real(oracle, corpus)
    back = decide_real(unfolded, corpus)
    mismatches = [{"index": int(i), "direct": bool(direct[i]),
                   "unfolded": bool(back[i])}
                  for i in np.flatnonzero(direct != back)]
    status = VERIFIED if not mismatches else VIOLATED
    return VerificationReport(
        claim="real-ideal-roundtrip", status=status,
        residuals={"mismatches": float(len(mismatches))},
        witness=mismatches or None,
        notes=["threshold-style oracles are decision instruments, not ideals "
               "closed under addition"])


def verify_theorem_complex(oracle, corpus: Sequence[RespectingOperator], *,
                           self_conjugate: Optional[bool] = None
                           ) -> VerificationReport:
    """Unfold complex -> real -> complex; check inclusion on the corpus, and
    equality when the oracle passes the self-conjugacy audit.

    The unfolded decision queries [T (+) T, N_X, N_Y]; moving between the
    natural i-operator and the split structure on the doubled matrix is
    decision-neutral for the oracles shipped here (they depend on the matrix
    and the ambient norms only), mirroring the square-space isomorphism.
    Without self_conjugate the audit runs, whose averaged squares need a
    corpus over Euclidean-like spaces (see split_structure).  The corpus is
    grouped once for the audit and both decisions.
    """
    unfolded = complexify_ideal(realify_ideal(oracle))
    groups, direct = _grouped(oracle, corpus)
    if self_conjugate is None:
        self_conjugate = _audit(oracle, corpus, groups, direct, tol=DEFAULT_TOL).ok
    back = _members(unfolded, groups)
    inclusion_violations = [{"index": int(i)}
                            for i in np.flatnonzero(back & ~direct)]
    equality_mismatches = [{"index": int(i), "direct": bool(direct[i]),
                            "unfolded": bool(back[i])}
                           for i in np.flatnonzero(back != direct)
                           ] if self_conjugate else []
    bad = inclusion_violations + equality_mismatches
    status = VERIFIED if not bad else VIOLATED
    return VerificationReport(
        claim="complex-ideal-roundtrip", status=status,
        residuals={"inclusion_violations": float(len(inclusion_violations)),
                   "equality_mismatches": float(len(equality_mismatches))},
        witness={"inclusion": inclusion_violations,
                 "equality": equality_mismatches} if bad else None,
        notes=[f"audited self-conjugate: {self_conjugate}",
               "threshold-style oracles are decision instruments, not ideals "
               "closed under addition"])
