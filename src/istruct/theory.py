"""Executable constructions: complexification witnesses, the square-space
isomorphism, the Cartesian-square factorization identities, and the
real/complex transform roundtrip checks for membership oracles."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import WitnessError
from .morphisms import (RANK_RTOL, RespectingOperator, block_diag2,
                        injection_first, injection_second, is_isomorphism,
                        make_respecting, matrix_norm_between,
                        surjection_first, surjection_second)
from .report import INCONCLUSIVE, VERIFIED, VIOLATED, VerificationReport
from .spaces import (ComplexificationOfBase, EuclideanQuadratic, NormedSpace,
                     Polyhedral, SubspaceNorm, direct_sum, euclidean_gram)
from .structures import (ComplexStructure, _accept, natural_i_operator,
                         validate_i_operator)


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
    res = is_isomorphism(iso)
    if not res.is_isomorphism:
        raise WitnessError(f"map is not invertible ({res.reason})")
    dim = S.shape[0]
    if dim % 2 != 0:
        raise WitnessError("codomain dimension must be even")
    C = conjugation_matrix(dim // 2)
    T = np.linalg.solve(S, C @ S)
    A = iso.domain.A
    r_inv = float(np.max(np.abs(T @ T - np.eye(dim))))
    r_anti = float(np.max(np.abs(T @ A + A @ T)))
    if max(r_inv, r_anti) > tol:
        raise WitnessError(
            f"extracted map fails the involution/anticommutation residuals "
            f"({r_inv:.3e}, {r_anti:.3e})")
    return T


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
    """The subspace spanned by the basis columns, with the restricted norm."""
    m = basis.shape[1]
    gram = euclidean_gram(space)
    if gram is not None:
        return NormedSpace(m, EuclideanQuadratic(basis.T @ gram @ basis))
    if isinstance(space.norm_desc, Polyhedral):
        return NormedSpace(m, Polyhedral(space.norm_desc.functionals @ basis))
    return NormedSpace(m, SubspaceNorm(space, basis))


def build_complexification_witness(s: ComplexStructure, T, *,
                                   tol: Tolerances = DEFAULT_TOL,
                                   hyp_tol: float = 1e-8,
                                   norm_samples: int = 2000,
                                   seed: int = 0) -> ComplexificationWitness:
    """Realize [X, A] as the doubled space over Y = {x + Tx}.

    The forward map is x -> (Ax + TAx, x + Tx) in Y-coordinates; the inverse
    is (y1, y2) -> (y2 - A y1) / 2 read back through the basis.
    """
    A = s.A
    dim = s.space.dim
    T = np.asarray(T, dtype=float)
    if T.shape != (dim, dim):
        raise WitnessError(f"T must be {dim} x {dim}, got {T.shape}")
    r_inv = float(np.max(np.abs(T @ T - np.eye(dim))))
    r_anti = float(np.max(np.abs(T @ A + A @ T)))
    if max(r_inv, r_anti) > hyp_tol:
        raise WitnessError(
            f"T is not an anticommuting involution (residuals {r_inv:.3e}, "
            f"{r_anti:.3e})")

    P = np.eye(dim) + T
    U, sv, _ = np.linalg.svd(P)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    if rank != dim // 2:
        raise WitnessError(
            f"I + T has rank {rank}, expected {dim // 2}")
    B = U[:, :rank]

    y_space = _induced_subspace(s.space, B)
    ny = natural_i_operator(y_space)

    S_mat = np.vstack([B.T @ (P @ A), B.T @ P])
    S_inv_mat = 0.5 * np.hstack([-(A @ B), B])
    S_op = make_respecting(s, ny, S_mat, tol=tol)
    S_inv_op = make_respecting(ny, s, S_inv_mat, tol=tol)

    round_dev = float(np.max(np.abs(S_inv_mat @ S_mat - np.eye(dim))))

    s_norm, s_exact = matrix_norm_between(S_mat, s.space, ny.space,
                                          samples=norm_samples, seed=seed)
    p_norm, p_exact = matrix_norm_between(P, s.space, s.space,
                                          samples=norm_samples, seed=seed)
    bound_ok = s_norm <= p_norm + 1e-6
    exact = s_exact and p_exact
    if bound_ok:
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
    report = VerificationReport(
        claim="complexification-witness",
        status=status,
        residuals={"involution": r_inv, "anticommutation": r_anti,
                   "inverse_composition": round_dev,
                   "norm_excess": max(0.0, s_norm - p_norm)},
        witness=None if status == VERIFIED else {"norm_bound": norm_bound},
        tolerances={"hyp_tol": hyp_tol, "norm_slack": 1e-6},
        seeds={"seed": seed})
    return ComplexificationWitness(T, B, S_op, S_inv_op, norm_bound, report)


# ---------------------------------------------------------------------------
# The square-space isomorphism [X (+) X, N_X] ~ [X (+) X, A (+) -A]
# ---------------------------------------------------------------------------

def squares_isomorphism_matrix(A: np.ndarray) -> np.ndarray:
    """(x1, x2) -> (x1 + A x2, x1 - A x2)."""
    n = A.shape[0]
    I = np.eye(n)
    return np.block([[I, A], [I, -A]])


def squares_isomorphism_inverse_matrix(A: np.ndarray) -> np.ndarray:
    """(u, v) -> ((u + v) / 2, -A (u - v) / 2); uses A^2 = -I."""
    n = A.shape[0]
    I = np.eye(n)
    return np.block([[I / 2, I / 2], [-A / 2, A / 2]])


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
    return _split_on(direct_sum(s.space, s.space, mode), [s],
                     _split_matrix(s.A[None]), tol=tol)[0]


def _split_on(space2: NormedSpace, structures: Sequence[ComplexStructure],
              A2s: np.ndarray, *, tol: Tolerances) -> list:
    """split_structure of each structure, all on the space X that space2
    doubles (either norm), with A2s the stack of their A (+) -A."""
    if (isinstance(space2.norm_desc, ComplexificationOfBase)
            and euclidean_gram(space2.norm_desc.base) is None):
        return [validate_i_operator(space2, A2, tol=tol) for A2 in A2s]
    out = []
    for s, A2 in zip(structures, A2s):
        cert = s.certificate
        if cert.witness is not None:
            x, alpha, beta = cert.witness
            cert = replace(cert, witness=(np.concatenate([x, np.zeros_like(x)]),
                                          alpha, beta))
        out.append(_accept(space2, A2, cert, tol))
    return out


def squares_isomorphism(s: ComplexStructure, *,
                        tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    """Isomorphism [X (+) X, N_X] -> [X (+) X, A (+) -A]."""
    dom = natural_i_operator(s.space)
    cod = split_structure(s, tol=tol)
    return make_respecting(dom, cod, squares_isomorphism_matrix(s.A), tol=tol)


def verify_squares_isomorphism(s: ComplexStructure, *,
                               tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    op = squares_isomorphism(s, tol=tol)
    inv = squares_isomorphism_inverse_matrix(s.A)
    dim = op.matrix.shape[0]
    dev = float(np.max(np.abs(inv @ op.matrix - np.eye(dim))))
    dev2 = float(np.max(np.abs(op.matrix @ inv - np.eye(dim))))
    status = VERIFIED if (op.respect_residual <= tol.tol_alg
                          and max(dev, dev2) <= 1e-12) else VIOLATED
    return VerificationReport(
        claim="square-space-isomorphism", status=status,
        residuals={"respect": op.respect_residual,
                   "inverse_composition": max(dev, dev2)},
        witness=None if status == VERIFIED else {"A": s.A.tolist()},
        tolerances={"respect": tol.tol_alg, "inverse": 1e-12})


# ---------------------------------------------------------------------------
# Cartesian-square factorization identities
# ---------------------------------------------------------------------------

def verify_real_cartesian_identities(T) -> VerificationReport:
    """T = Q1 (T (+) T) J1 and T (+) T = J1 T Q1 + J2 T Q2, as exact matrix
    equalities for an arbitrary rectangular T."""
    T = np.asarray(T, dtype=float)
    m, n = T.shape
    TT = block_diag2(T)
    dev1 = float(np.max(np.abs(T - surjection_first(m) @ TT @ injection_first(n))))
    dev2 = float(np.max(np.abs(
        TT - (injection_first(m) @ T @ surjection_first(n)
              + injection_second(m) @ T @ surjection_second(n)))))
    status = VERIFIED if max(dev1, dev2) == 0.0 else VIOLATED
    return VerificationReport(
        claim="real-cartesian-identities", status=status,
        residuals={"restriction": dev1, "reassembly": dev2},
        witness=None if status == VERIFIED else {"shape": [m, n]},
        tolerances={"deviation": 0.0})


def _split_matrix(A: np.ndarray) -> np.ndarray:
    """A (+) -A; of each matrix of a stack (..., n, n)."""
    n = A.shape[-1]
    out = np.zeros((*A.shape[:-2], 2 * n, 2 * n))
    out[..., :n, :n] = A
    out[..., n:, n:] = -A
    return out


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
    A, B, T = op.domain.A, op.codomain.A, op.matrix
    n, m = A.shape[0], B.shape[0]
    A2, B2 = _split_matrix(A), _split_matrix(B)
    TT = block_diag2(T)
    j1x, j2x = injection_first(n), injection_second(n)
    q1x, q2x = surjection_first(n), surjection_second(n)
    j1y, j2y = injection_first(m), injection_second(m)
    q1y, q2y = surjection_first(m), surjection_second(m)

    def rr(L, Adom, Acod):
        return float(np.max(np.abs(L @ Adom - Acod @ L)))

    residuals = {
        "J1_X(A,split)": rr(j1x, A, A2),
        "TT(split,split)": rr(TT, A2, B2),
        "Q1_Y(split,B)": rr(q1y, B2, B),
        "Q1_X(split,A)": rr(q1x, A2, A),
        "J1_Y(B,split)": rr(j1y, B, B2),
        "T(A,B)": rr(T, A, B),
        "Q2_X(split,-A)": rr(q2x, A2, -A),
        "T(-A,-B)": rr(T, -A, -B),
        "J2_Y(-B,split)": rr(j2y, -B, B2),
        "J2_X(-A,split)": rr(j2x, -A, A2),
        "Q2_Y(split,-B)": rr(q2y, B2, -B),
    }
    if corrupt_annotation:
        # wrong claim: J2 respects (A, A (+) -A)
        residuals["J2_X(A,split)"] = rr(j2x, A, A2)

    dev1 = float(np.max(np.abs(T - q1y @ TT @ j1x)))
    dev2 = float(np.max(np.abs(TT - (j1y @ T @ q1x + j2y @ T @ q2x))))
    dev3 = float(np.max(np.abs(T - q2y @ TT @ j2x)))
    deviations = {"restriction": dev1, "reassembly": dev2,
                  "conjugate_restriction": dev3}

    bad = {k: v for k, v in residuals.items() if v > tol.tol_alg}
    bad_dev = {k: v for k, v in deviations.items() if v > tol.abs_tol}
    status = VERIFIED if not bad and not bad_dev else VIOLATED
    return VerificationReport(
        claim="complex-cartesian-identities", status=status,
        residuals={**residuals, **deviations},
        witness=None if status == VERIFIED else {"failed": {**bad, **bad_dev}},
        tolerances={"respect": tol.tol_alg, "deviation": tol.abs_tol})


# ---------------------------------------------------------------------------
# Transform roundtrips at the oracle level
# ---------------------------------------------------------------------------

def verify_theorem_real(oracle, corpus: Sequence) -> VerificationReport:
    """Unfold real -> complex -> real and compare decisions on the corpus.

    Each corpus item is a RealOperator.  The unfolded oracle queries the
    doubled matrix between the complexified spaces.
    """
    from .ideals import complexify_ideal, decide_real, realify_ideal
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
    corpus over Euclidean-like spaces (see split_structure).
    """
    from .ideals import (audit_self_conjugacy, complexify_ideal, decide_complex,
                         realify_ideal)
    unfolded = complexify_ideal(realify_ideal(oracle))
    if self_conjugate is None:
        self_conjugate = audit_self_conjugacy(oracle, corpus).ok
    back = decide_complex(unfolded, corpus)
    direct = decide_complex(oracle, corpus)
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
