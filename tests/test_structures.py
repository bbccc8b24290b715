import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from istruct import structures
from istruct.corpus import random_exact_structure, signed_pairing_matrix
from istruct.config import DEFAULT_TOL
from istruct.errors import (DescriptorError, DimensionMismatchError, IstructError,
                            StructureValidationError)
from istruct.morphisms import _split_matrix
from istruct.spaces import (NormedSpace, Polyhedral, SubspaceNorm, WeightedLp,
                            direct_sum, euclidean_gram, euclidean_space,
                            lp_space, norm, norm_batch)
from istruct.structures import (BY_CONSTRUCTION, FOUND, NONE_FINITE_GROUP,
                                ODD_DIMENSION, UNDECIDED, Certificate,
                                ComplexStructure,
                                _sampled_isometry_residual,
                                certify, complex_scalar_action,
                                conjugate_structure, natural_i_operator,
                                natural_i_operator_matrix, reevaluate_witness,
                                search_i_operator, validate_i_operator)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _random_gram(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_rotation_is_i_operator_on_euclidean_plane():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    assert s.certificate.exact
    assert s.certificate.algebraic_residual == 0.0
    assert s.certificate.isometry_residual == 0.0


def test_odd_dimension_rejected():
    with pytest.raises(StructureValidationError, match="odd dimension"):
        validate_i_operator(lp_space(3, 2.0), np.zeros((3, 3)))


def test_algebraic_failure_rejected():
    with pytest.raises(StructureValidationError, match="algebraic"):
        validate_i_operator(lp_space(2, 2.0), np.eye(2))


def test_isometry_failure_has_reproducible_witness():
    space = lp_space(2, 1.0)
    A = np.array([[0.0, -2.0], [0.5, 0.0]])  # A^2 = -I but not isometric
    with pytest.raises(StructureValidationError) as exc_info:
        validate_i_operator(space, A)
    cert = exc_info.value.certificate
    assert cert.witness is not None
    redo = reevaluate_witness(space, A, cert.witness)
    assert redo == pytest.approx(cert.isometry_residual, abs=1e-12)


def test_rotation_on_l1_plane_rejected():
    # the quarter turn preserves the l1 ball, but intermediate rotations do
    # not, so it is not an i-operator
    with pytest.raises(StructureValidationError):
        validate_i_operator(lp_space(2, 1.0), J2)


def test_certify_shape_check():
    with pytest.raises(DimensionMismatchError):
        certify(lp_space(2, 2.0), np.zeros((3, 3)))


@pytest.mark.parametrize("p", [2.0, 1.0])  # the Gram path and the sampled path
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certify_rejects_a_non_finite_candidate(p, bad):
    # a NaN residual compares false against every tolerance, so a non-finite
    # A must be refused before any residual is computed
    A = [[0.0, -1.0], [1.0, bad]]
    with pytest.raises(DimensionMismatchError, match="finite"):
        certify(lp_space(2, p), A)
    with pytest.raises(DimensionMismatchError, match="finite"):
        validate_i_operator(lp_space(2, p), A)


def test_natural_i_operator_matrix_layout():
    N = natural_i_operator_matrix(2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(N @ x, [-3.0, -4.0, 1.0, 2.0])


@pytest.mark.parametrize("base", [
    lp_space(2, 2.0),
    lp_space(2, 1.0),
    lp_space(2, math.inf),
    NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
])
def test_natural_i_operator_validates(base):
    c = natural_i_operator(base).certificate
    assert c.exact and c.samples_used == 0
    assert c.algebraic_residual == 0.0
    assert c.isometry_residual == 0.0


HEX = NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])))


def _cplx(base):
    return natural_i_operator(base).space


@pytest.mark.parametrize("base", [
    lp_space(2, 1.0),
    lp_space(2, math.inf),
    lp_space(2, 3.0),
    NormedSpace(2, WeightedLp(1.0, np.array([1.0, 2.0]))),
    HEX,
    lp_space(3, 1.5),
    direct_sum(lp_space(2, 1.0), lp_space(2, math.inf)),
], ids=["l1", "linf", "l3", "weighted-l1", "hex-2", "l1.5-3", "l1+linf"])
def test_natural_i_operator_is_isometric_under_quadrature(base):
    # certify decides N by its proof; sampling it still checks the
    # complexification norm on the bases the scenarios use: the arc
    # quadrature, and for l1+linf the exact kernel of polytope sums
    N = natural_i_operator_matrix(base.dim)
    iso, _, used = _sampled_isometry_residual(_cplx(base), N, 128, 16)
    assert used == 128 * 16
    assert iso <= 1e-8


@pytest.mark.parametrize("space, A", [
    (_cplx(lp_space(2, 1.0)), -natural_i_operator_matrix(2)),
    (_cplx(lp_space(2, 1.0)), natural_i_operator_matrix(2)[:, [1, 0, 3, 2]]),
    (direct_sum(lp_space(2, 1.0), lp_space(2, 1.0)), natural_i_operator_matrix(2)),
], ids=["minus-N", "column-permuted-N", "N-on-sum"])
def test_structural_certificate_is_only_for_n_on_a_complexification(space, A):
    c = certify(space, A, samples=16, angles=8)
    assert not c.exact
    assert c.samples_used == 16 * 8


def test_conjugate_structure_negates_matrix():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    c = conjugate_structure(s)
    assert np.array_equal(c.A, -J2)
    assert c.certificate.isometry_residual == s.certificate.isometry_residual


def test_conjugate_structure_flips_a_sampled_witness():
    # A^2 = -I, but the rotations are not l1 isometries; the worst sampled
    # angle has alpha and beta both nonzero, so the sign of beta matters
    space, A = lp_space(2, 1.0), np.array([[0.5, -1.0], [1.25, -0.5]])
    cert = certify(space, A, samples=16, angles=8)
    x, alpha, beta = cert.witness
    assert alpha != 0.0 and beta != 0.0 and cert.isometry_residual > 0.1
    conj = conjugate_structure(ComplexStructure(space, A, cert))
    assert conj.certificate.witness[2] == -beta
    assert reevaluate_witness(space, conj.A, conj.certificate.witness) == pytest.approx(
        cert.isometry_residual, rel=1e-14)
    assert reevaluate_witness(space, conj.A, cert.witness) < cert.isometry_residual / 2


def test_complex_scalar_action():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    out = complex_scalar_action(s, 0.0, 1.0, [1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0])
    # i . (i . x) = -x
    twice = complex_scalar_action(s, 0.0, 1.0, out)
    assert np.allclose(twice, [-1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        complex_scalar_action(s, 1.0, 0.0, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_complex_scalar_action_rejects_non_finite_vectors(bad):
    s = validate_i_operator(lp_space(2, 2.0), J2)
    with pytest.raises(DimensionMismatchError, match="finite"):
        complex_scalar_action(s, 1.0, 0.0, [1.0, bad])


def test_scalar_action_is_isometric():
    s = natural_i_operator(lp_space(2, 1.0))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    for th in (0.3, 1.1, 2.9):
        y = complex_scalar_action(s, math.cos(th), math.sin(th), x)
        assert norm(s.space, y) == pytest.approx(norm(s.space, x), rel=1e-8)


# ---------------------------------------------------------------------------
# Exact integer generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_signed_pairing_is_exact(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        A = signed_pairing_matrix(dim, rng)
        assert np.array_equal(A @ A, -np.eye(dim))


def test_signed_pairing_of_odd_dimension_is_a_typed_error():
    with pytest.raises(DescriptorError, match="even dimension"):
        signed_pairing_matrix(3, np.random.default_rng(0))


def test_random_exact_structure_certificate():
    s = random_exact_structure(6, np.random.default_rng(7))
    assert s.certificate.algebraic_residual == 0.0
    assert s.certificate.isometry_residual == 0.0


# ---------------------------------------------------------------------------
# Certificates carried by constructions, against certify
# ---------------------------------------------------------------------------

def _same_certificate(a, b):
    assert a.algebraic_residual == b.algebraic_residual
    assert a.isometry_residual == b.isometry_residual
    assert a.samples_used == b.samples_used
    assert a.exact == b.exact
    assert a.witness is None and b.witness is None


def test_certificate_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BY_CONSTRUCTION.isometry_residual = 1.0


@pytest.mark.parametrize("base", [
    lp_space(2, 1.0),
    lp_space(2, 3.0),
    HEX,
    lp_space(2, 2.0),
    euclidean_space(3, _random_gram(3, 11)),
    _cplx(lp_space(2, 1.0)),
], ids=["l1", "l3", "hex", "l2", "quad-3", "cplx-l1"])
def test_natural_i_operator_proof_matches_certify(base):
    s = natural_i_operator(base)
    assert s.certificate is BY_CONSTRUCTION
    _same_certificate(certify(s.space, s.A), s.certificate)


@pytest.mark.parametrize("base, c", [
    (lp_space(1, 3.0), 1.0),
    (NormedSpace(1, WeightedLp(1.5, np.array([2.5]))), 2.5 ** (1 / 1.5)),
    (lp_space(1, 1.0), 1.0),
    (lp_space(1, math.inf), 1.0),
    (NormedSpace(1, WeightedLp(math.inf, np.array([0.75]))), 0.75),
    (NormedSpace(1, Polyhedral(np.array([[1.0], [-2.0], [0.5]]))), 2.0),
    (NormedSpace(1, SubspaceNorm(lp_space(2, 3.0), np.array([[1.0], [2.0]]))),
     9.0 ** (1 / 3)),
], ids=["l3", "weighted-l1.5", "l1", "linf", "weighted-linf", "polyhedral",
        "sub-of-l3"])
def test_one_dimensional_double_certifies_by_its_gram(base, c):
    # every norm on a line is c|x|, so its Gram is [[c^2]]; the square of N on
    # cplx(l3^1) took a sampled certify of 93 s before the Gram was known, and
    # on the sub-of-l3 line one of 2.5-3 minutes
    assert euclidean_gram(base).shape == (1, 1)
    assert euclidean_gram(base)[0, 0] == pytest.approx(c * c, rel=1e-15)
    x = np.array([[-3.0], [0.5], [7.0]])
    assert np.allclose(norm_batch(base, x), c * np.abs(x[:, 0]), rtol=1e-15)
    s = natural_i_operator(base)
    double = natural_i_operator(s.space).space
    start = time.perf_counter()
    cert = certify(double, _split_matrix(s.A))
    assert time.perf_counter() - start < 1.0
    _same_certificate(cert, BY_CONSTRUCTION)


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_random_exact_structure_proof_matches_certify(dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        s = random_exact_structure(dim, rng)
        assert s.certificate is BY_CONSTRUCTION
        _same_certificate(certify(s.space, s.A), s.certificate)


# ---------------------------------------------------------------------------
# Existence decision
# ---------------------------------------------------------------------------

def test_search_finds_structure_on_euclidean_plane():
    result = search_i_operator(lp_space(2, 2.0))
    assert result.tag == FOUND
    s = result.found
    assert s is not None and s.certificate.exact
    assert s.certificate.algebraic_residual == 0.0
    assert s.certificate.isometry_residual == 0.0
    assert result.best_residual == 0.0
    assert np.array_equal(s.A, J2)


def _assert_validator_accepts(space, result):
    """validate_i_operator accepts the structure the search found, with the
    found certificate's residuals exactly: the search certifies through
    certify."""
    found = result.found.certificate
    c = validate_i_operator(space, result.found.A).certificate
    assert c.exact and c.witness is None and c.samples_used == 0
    assert c.algebraic_residual == found.algebraic_residual
    assert c.isometry_residual == found.isometry_residual


@pytest.mark.parametrize("space", [
    euclidean_space(4, _random_gram(4, 11)),
    euclidean_space(6, _random_gram(6, 12)),
    NormedSpace(2, WeightedLp(2.0, np.array([1.0, 9.0]))),
    natural_i_operator(lp_space(2, 2.0)).space,
    lp_space(4, 2.0),
], ids=["quad-4", "quad-6", "weighted-l2", "cplx-l2", "l2-4"])
def test_search_finds_structure_on_euclidean_like_spaces(space):
    result = search_i_operator(space)
    assert result.tag == FOUND
    c = result.found.certificate
    assert c.exact and c.samples_used == 0
    assert result.best_residual == c.algebraic_residual + c.isometry_residual
    assert result.best_residual <= 1e-12
    _assert_validator_accepts(space, result)


def test_search_odd_dimension():
    result = search_i_operator(lp_space(3, 2.0))
    assert result.tag == ODD_DIMENSION
    assert result.found is None


@pytest.mark.parametrize("space", [
    lp_space(2, 1.0),
    lp_space(2, math.inf),
    NormedSpace(4, WeightedLp(1.0, np.array([1.0, 2.0, 3.0, 4.0]))),
    lp_space(2, 3.0),
    NormedSpace(4, WeightedLp(1.5, np.array([1.0, 1.0, 2.0, 2.0]))),
    NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
    NormedSpace(2, SubspaceNorm(lp_space(3, 1.0), np.array([[1.0, 0.0], [0.0, 1.0],
                                                            [1.0, -2.0]]))),
], ids=["l1", "linf", "weighted-l1", "l3", "weighted-l1.5", "polyhedral",
        "sub-of-l1"])
def test_search_proves_none_when_isometry_group_is_finite(space):
    # no complex structure makes these norms complex-homogeneous
    result = search_i_operator(space)
    assert result.tag == NONE_FINITE_GROUP
    assert result.found is None and result.best_candidate is None


@pytest.mark.parametrize("space", [
    _cplx(lp_space(2, 1.0)),
    _cplx(lp_space(2, 3.0)),
    _cplx(HEX),
    _cplx(_cplx(lp_space(2, 1.0))),
    _cplx(lp_space(2, 2.0)),
    _cplx(euclidean_space(2, _random_gram(2, 13))),
    _cplx(lp_space(1, 1.0)),
    _cplx(lp_space(1, math.inf)),
], ids=["cplx-l1", "cplx-l3", "cplx-hex", "cplx-cplx-l1", "cplx-l2", "cplx-quad-2",
        "cplx-l1-line", "cplx-linf-line"])
def test_search_finds_natural_operator_on_complexifications(space):
    # N is constructed before the whitening, whose L^-T J L' on a Gram base
    # is not N and certifies with rounding residuals (2.7e-17 on cplx-quad-2)
    result = search_i_operator(space)
    assert result.tag == FOUND
    s = result.found
    assert np.array_equal(s.A, natural_i_operator_matrix(space.dim // 2))
    assert s.certificate.exact and s.certificate.samples_used == 0
    assert result.best_residual == 0.0
    _assert_validator_accepts(space, result)


@pytest.mark.parametrize("space", [
    direct_sum(lp_space(2, 1.0), lp_space(2, 2.0)),
    NormedSpace(2, SubspaceNorm(lp_space(3, 3.0), np.array([[1.0, 0.0], [0.0, 1.0],
                                                            [1.0, 1.0]]))),
], ids=["l1+l2", "sub-of-l3"])
def test_search_undecided_elsewhere(space):
    result = search_i_operator(space)
    assert result.tag == UNDECIDED
    assert result.found is None


_PLANES = direct_sum(lp_space(2, 2.0), lp_space(2, 2.0))
_JJ = np.kron(np.eye(2), J2)


@pytest.mark.parametrize("space, A", [
    (_PLANES, _JJ),
    (direct_sum(_PLANES, _cplx(lp_space(1, 1.0))),
     np.kron(np.eye(3), J2)),
], ids=["l2+l2", "(l2+l2)+cplx-l1-line"])
def test_search_finds_the_parts_operators_on_a_sum(space, A):
    # each part has an i-operator, so their direct sum is one on the l1-sum
    result = search_i_operator(space)
    assert result.tag == FOUND
    assert np.array_equal(result.found.A, A)
    c = result.found.certificate
    assert c.exact and c.samples_used == 0
    assert result.best_residual == 0.0
    _assert_validator_accepts(space, result)


def test_certify_of_a_block_diagonal_operator_on_a_sum_is_exact():
    c = certify(_PLANES, _JJ)
    assert c.exact and c.samples_used == 0
    assert c.algebraic_residual == 0.0 and c.isometry_residual == 0.0
    # the larger of the parts' residuals, each part certified on its own
    A = _JJ.copy()
    A[2:, 2:] *= 1.5
    c = certify(_PLANES, A)
    part = certify(lp_space(2, 2.0), A[2:, 2:])
    assert c.exact and c.samples_used == 0
    assert c.algebraic_residual == part.algebraic_residual > 0.0
    assert c.isometry_residual == part.isometry_residual > 0.0


def test_certify_samples_a_block_diagonal_operator_with_an_inexact_part():
    space = direct_sum(lp_space(2, 1.0), lp_space(2, 2.0))
    c = certify(space, _JJ, samples=16, angles=8)
    assert not c.exact and c.samples_used == 16 * 8


def _conditioned_gram(n, condition, seed):
    """Q diag(logspace(0, log10 condition)) Q' with a random orthogonal Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q @ np.diag(np.logspace(0, math.log10(condition), n)) @ Q.T


@pytest.mark.parametrize("n, condition", [
    (2, 1e7), (4, 1e7), (6, 1e7), (8, 1e8), (10, 1e8), (12, 1e8),
])
def test_search_finds_structure_on_ill_conditioned_grams(n, condition):
    # A^2 + I in the coordinate basis misses tol_alg for all of these; the
    # whitened check sees the operator in the space's own norm.  At condition
    # 1e8 dims 2-6 are left out: the whitened residual of A, of order
    # eps * cond(G), misses tol_alg on part of them (in dim 2 even for the
    # correctly rounded operator)
    for seed in range(10):
        space = euclidean_space(n, _conditioned_gram(n, condition, seed))
        result = search_i_operator(space)
        assert result.tag == FOUND
        c = result.found.certificate
        assert c.exact and c.algebraic_residual <= DEFAULT_TOL.tol_alg
        assert c.isometry_residual <= DEFAULT_TOL.tol_iso
        _assert_validator_accepts(space, result)


@pytest.mark.parametrize("sampling", [
    {"samples": 0}, {"angles": 0}, {"angles": 1}, {"angles": 2},
], ids=["samples-0", "angles-0", "angles-1", "angles-2"])
def test_degenerate_sampling_is_a_typed_error(sampling):
    # no vectors, or a grid of angle 0 (the reference) and pi (every norm is
    # even), checks nothing; the default grid rejects this rotation of l1^2
    with pytest.raises(StructureValidationError) as exc:
        validate_i_operator(lp_space(2, 1.0), J2)
    # a sampled lower bound of sqrt(2) - 1, reached at x = e1 and angle pi/4
    assert 0.41 < exc.value.certificate.isometry_residual <= math.sqrt(2) - 1
    with pytest.raises(IstructError, match="samples >= 1 and angles >= 3"):
        validate_i_operator(lp_space(2, 1.0), J2, **sampling)


@pytest.mark.parametrize("p", [300.0, 1000.0, 1e6])
def test_sampled_check_rejects_a_rotation_when_lp_norms_under_or_overflow(p):
    # |x|^p underflows to 0 or overflows to inf on many Gaussian samples (on
    # all of them at p = 1e6); the lp norm evaluates those rows again scaled,
    # so every sample measures, and J2 is still no isometry of lp^2
    with pytest.raises(StructureValidationError) as exc:
        validate_i_operator(lp_space(2, p), J2)
    assert exc.value.certificate.isometry_residual > 0.1
    assert exc.value.certificate.witness is not None


@pytest.mark.parametrize("value", [0.0, np.inf])
def test_sampled_check_with_no_usable_reference_is_no_isometry(value, monkeypatch):
    # every sampled norm under- or overflowed: no sample measures, and that
    # is no evidence of an isometry, so the residual is infinite and there is
    # no witness
    monkeypatch.setattr(structures, "norm_batch", lambda space, X: np.full(len(X), value))
    iso, witness, evaluated = _sampled_isometry_residual(lp_space(2, 1.0), J2, 16, 8)
    assert (iso, witness, evaluated) == (np.inf, None, 16 * 8)
    with pytest.raises(StructureValidationError) as exc:
        validate_i_operator(lp_space(2, 1.0), J2)
    assert exc.value.certificate.isometry_residual == np.inf
    assert exc.value.certificate.witness is None


def test_gram_certificate_rejects_a_non_isometry_on_a_tiny_gram():
    # A halves the norm of e1; measured in coordinates, A'GA - G is only
    # 3e-10 on G = 1e-10 I, but whitened it is W'W - I = diag(-3/4, 3)
    A = np.array([[0.0, -2.0], [0.5, 0.0]])
    space = euclidean_space(2, 1e-10 * np.eye(2))
    assert certify(space, A).isometry_residual == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(StructureValidationError, match="isometry residual"):
        validate_i_operator(space, A)


def test_gram_certificate_accepts_the_search_structure_on_a_large_gram():
    # in coordinates the residual of the search's A grows with G (4.8e-7
    # here); whitened it does not
    M = np.eye(4) + 0.15 * np.random.default_rng(0).standard_normal((4, 4))
    space = euclidean_space(4, 1e9 * M.T @ M)
    result = search_i_operator(space)
    assert result.tag == FOUND
    c = validate_i_operator(space, result.found.A).certificate
    assert c.exact and c.isometry_residual <= 1e-14


def _fractions(M):
    return [[Fraction(float(v)) for v in row] for row in M]


def _mul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def _add(X, Y, sign=1):
    return [[a + sign * b for a, b in zip(r, q)] for r, q in zip(X, Y)]


def _transpose(X):
    return [list(col) for col in zip(*X)]


def _inverse(X):
    """X^-1 by Gauss-Jordan elimination in rationals."""
    n = len(X)
    M = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(X)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


def _max_abs(X):
    return max(abs(v) for row in X for v in row)


def _exact_gram_residuals(gram, A, P):
    """The whitened residuals of A on the Gram, as exact rationals of the
    stored floats in the coordinates P = L'^-1: max |P^-1 (A^2 + I) P| and the
    larger of max |P'(A'GA - G) P| and max |P'(GA + A'G) P|."""
    G, A, P = _fractions(gram), _fractions(A), _fractions(P)
    At, Pt = _transpose(A), _transpose(P)
    eye = _fractions(np.eye(len(A)))
    alg = _mul(_mul(_inverse(P), _add(_mul(A, A), eye)), P)
    r1 = _mul(_mul(Pt, _add(_mul(_mul(At, G), A), G, -1)), P)
    r2 = _mul(_mul(Pt, _add(_mul(G, A), _mul(At, G))), P)
    return _max_abs(alg), max(_max_abs(r1), _max_abs(r2))


def test_search_finds_what_the_validator_accepts_on_ill_conditioned_grams():
    # the search returns certify's certificate of its construction, so it
    # finds exactly the candidates the validator accepts; each of them is an
    # i-operator of G within tol when the residuals are formed in exact
    # rationals of the same floats
    found = set()
    for n in (2, 4, 6, 8):
        for seed in range(5):
            space = euclidean_space(n, _conditioned_gram(n, 1e9, seed))
            result = search_i_operator(space)
            try:
                validate_i_operator(space, result.best_candidate)
            except StructureValidationError:
                assert result.tag == UNDECIDED and result.found is None
                continue
            assert result.tag == FOUND
            _assert_validator_accepts(space, result)
            alg, iso = _exact_gram_residuals(euclidean_gram(space), result.found.A,
                                             space._whitening[1])
            assert alg <= DEFAULT_TOL.tol_alg and iso <= DEFAULT_TOL.tol_iso
            found.add((n, seed))
    # within tol, though a Cholesky backward-error margin on top of certify
    # would leave them undecided
    assert {(4, 1), (4, 3), (8, 4)} <= found
    assert len(found) == 9


def test_search_undecided_when_gram_too_ill_conditioned():
    # A = L^-T J L' exists, but at condition 1e12 even its whitened form
    # L' A L^-T is far from J in floating point
    c, s = math.cos(0.3), math.sin(0.3)
    Q = np.array([[c, -s], [s, c]])
    space = euclidean_space(2, Q @ np.diag([1.0, 1e12]) @ Q.T)
    result = search_i_operator(space)
    assert result.tag == UNDECIDED
    assert result.found is None
    assert result.best_candidate is not None
    assert result.best_residual > DEFAULT_TOL.tol_alg
    # certify measures the candidate against G itself: the validator rejects it too
    with pytest.raises(StructureValidationError):
        validate_i_operator(space, result.best_candidate)


@pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan)],
                         ids=["algebraic", "isometry"])
def test_a_nan_certificate_residual_rejects_the_candidate(monkeypatch, residuals):
    monkeypatch.setattr(structures, "certify",
                        lambda *args, **kwargs: Certificate(*residuals, 0, True))
    with pytest.raises(StructureValidationError):
        validate_i_operator(lp_space(2, 2.0), J2)
