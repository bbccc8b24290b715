import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from istruct.corpus import random_exact_structure
from istruct.errors import (CompositionError, DimensionMismatchError, IstructError,
                            RespectViolationError)
from istruct.config import DEFAULT_TOL
from istruct.ideals import (IdealOracle, NormThreshold, RankThreshold, RealOperator,
                            decide_real, ideal_norm)
from istruct.morphisms import (RespectingOperator, _inverses, block_diag2,
                               complexify_operator, compose,
                               conjugate_operator, identity_operator,
                               injection_first, injection_second,
                               is_isomorphism, make_respecting,
                               matrix_norm_between, surjection_first,
                               surjection_second)
from istruct.pelczynski import factorization_hypothesis_check
from istruct.spaces import NormedSpace, Polyhedral, euclidean_space, lp_space
from istruct.structures import (BY_CONSTRUCTION, ComplexStructure,
                                natural_i_operator, search_i_operator,
                                validate_i_operator)
from istruct.theory import (build_complexification_witness, extract_conjugation,
                            split_structure, squares_isomorphism,
                            verify_complex_cartesian_identities)

from helpers import random_respecting_matrix, random_respecting_operator

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

small_matrices = arrays(np.float64, (3, 2),
                        elements=st.floats(-10, 10, allow_nan=False))


def euclid_structure(dim, seed):
    return random_exact_structure(dim, np.random.default_rng(seed))


def test_respecting_matrix_has_zero_residual():
    rng = np.random.default_rng(0)
    dom, cod = euclid_structure(4, 1), euclid_structure(6, 2)
    T = random_respecting_matrix(dom.A, cod.A, rng)
    op = make_respecting(dom, cod, T)
    assert op.respect_residual == 0.0


def test_make_respecting_rejects_with_witness():
    dom = validate_i_operator(lp_space(2, 2.0), J2)
    cod = validate_i_operator(lp_space(2, 2.0), J2)
    T = np.array([[1.0, 0.0], [0.0, -1.0]])  # anticommutes, does not respect
    with pytest.raises(RespectViolationError) as exc_info:
        make_respecting(dom, cod, T)
    err = exc_info.value
    R = T @ J2 - J2 @ T
    i, j = err.witness
    assert abs(R[i, j]) == err.residual == np.max(np.abs(R))


def test_make_respecting_shape_check():
    dom, cod = euclid_structure(4, 1), euclid_structure(6, 2)
    with pytest.raises(DimensionMismatchError):
        make_respecting(dom, cod, np.zeros((4, 6)))


def test_compose_and_identity():
    rng = np.random.default_rng(3)
    a, b, c = (euclid_structure(4, k) for k in (1, 2, 3))
    f = random_respecting_operator(b, c, rng)
    g = random_respecting_operator(a, b, rng)
    fg = compose(f, g)
    assert np.allclose(fg.matrix, f.matrix @ g.matrix)
    assert np.array_equal(compose(f, identity_operator(b)).matrix, f.matrix)
    with pytest.raises(CompositionError):
        compose(g, f)  # structures do not line up


def test_conjugate_operator_flips_structures():
    rng = np.random.default_rng(4)
    dom, cod = euclid_structure(4, 1), euclid_structure(4, 2)
    op = random_respecting_operator(dom, cod, rng)
    conj = conjugate_operator(op)
    assert np.array_equal(conj.domain.A, -dom.A)
    assert np.array_equal(conj.codomain.A, -cod.A)
    assert np.array_equal(conj.matrix, op.matrix)
    assert conj.respect_residual == op.respect_residual


def test_is_isomorphism_inverse_respects():
    rng = np.random.default_rng(5)
    dom, cod = euclid_structure(4, 1), euclid_structure(4, 2)
    # a generic respecting matrix is invertible with probability one
    op = random_respecting_operator(dom, cod, rng)
    res = is_isomorphism(op)
    assert res.is_isomorphism
    assert res.condition_number >= 1.0
    assert np.allclose(res.inverse.matrix @ op.matrix, np.eye(4), atol=1e-10)
    assert res.inverse.respect_residual <= 1e-9


def test_is_isomorphism_rejects_non_square_and_singular():
    rng = np.random.default_rng(6)
    dom, cod = euclid_structure(2, 1), euclid_structure(4, 2)
    rect = random_respecting_operator(dom, cod, rng)
    assert is_isomorphism(rect).reason == "non-square"
    zero = make_respecting(dom, dom, np.zeros((2, 2)))
    assert is_isomorphism(zero).reason == "singular"


# ---------------------------------------------------------------------------
# Canonical block maps
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=50)
@given(T=small_matrices)
def test_block_identities_exact(T):
    m, n = T.shape
    TT = block_diag2(T)
    assert np.array_equal(T, surjection_first(m) @ TT @ injection_first(n))
    assert np.array_equal(T, surjection_second(m) @ TT @ injection_second(n))
    reassembled = (injection_first(m) @ T @ surjection_first(n)
                   + injection_second(m) @ T @ surjection_second(n))
    assert np.array_equal(TT, reassembled)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_block_maps_are_the_stacked_identity_blocks(n):
    eye, zero = np.eye(n), np.zeros((n, n))
    for got, blocks in [(injection_first(n), np.vstack([eye, zero])),
                        (injection_second(n), np.vstack([zero, eye])),
                        (surjection_first(n), np.hstack([eye, zero])),
                        (surjection_second(n), np.hstack([zero, eye]))]:
        assert got.dtype == blocks.dtype and got.shape == blocks.shape
        assert got.tobytes() == blocks.tobytes()


def test_is_isomorphism_of_a_stack_is_that_of_each_operator():
    rng = np.random.default_rng(8)
    s = euclid_structure(4, 3)
    ops = [random_respecting_operator(s, s, rng) for _ in range(4)]
    ops[2] = make_respecting(s, s, np.zeros((4, 4)))
    singular, _, Tinv, res, errors = _inverses(np.stack([op.matrix for op in ops]),
                                               s.A, s.A, DEFAULT_TOL)
    assert singular.tolist() == [False, False, True, False]
    assert errors == [None] * 4
    for op, inv, r, sing in zip(ops, Tinv, res, singular):
        one = is_isomorphism(op)
        assert one.is_isomorphism is not sing
        if not sing:
            assert np.array_equal(one.inverse.matrix, inv)
            assert one.inverse.respect_residual == r


def test_complexify_operator_preserves_norm():
    rng = np.random.default_rng(7)
    T = rng.standard_normal((3, 2))
    baseX, baseY = lp_space(2, 2.0), lp_space(3, 2.0)
    op = complexify_operator(T, baseX, baseY)
    assert op.respect_residual == 0.0
    doubled, exact = matrix_norm_between(op.matrix, op.domain.space,
                                         op.codomain.space)
    assert exact
    base_norm, _ = matrix_norm_between(T, baseX, baseY)
    assert doubled == pytest.approx(base_norm, rel=1e-12)


@pytest.mark.parametrize("baseX, baseY", [
    (lp_space(2, 2.0), lp_space(3, 2.0)),
    (lp_space(2, 1.0), lp_space(2, 3.0)),
    (NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
     lp_space(3, np.inf)),
], ids=["l2-l2", "l1-l3", "hex-linf"])
def test_complexify_operator_respects_by_construction(baseX, baseY):
    T = np.random.default_rng(3).standard_normal((baseY.dim, baseX.dim))
    op = complexify_operator(T, baseX, baseY)
    assert op.respect_residual == 0.0
    TT = block_diag2(T)
    assert np.max(np.abs(TT @ op.domain.A - op.codomain.A @ TT)) == 0.0


# ---------------------------------------------------------------------------
# Norm estimation
# ---------------------------------------------------------------------------

def test_matrix_norm_euclidean_exact():
    T = np.diag([3.0, 1.0])
    value, exact = matrix_norm_between(T, lp_space(2, 2.0), lp_space(2, 2.0))
    assert exact and value == pytest.approx(3.0)


def test_matrix_norm_l1_attained_on_basis_vectors():
    # the l1 -> l1 operator norm is the max column absolute sum, attained at
    # a coordinate direction, which the sampler always includes
    T = np.array([[1.0, -4.0], [2.0, 1.0]])
    value, exact = matrix_norm_between(T, lp_space(2, 1.0), lp_space(2, 1.0))
    assert not exact
    assert value == pytest.approx(5.0)


def test_matrix_norm_between_identity():
    s = euclid_structure(4, 8)
    op = identity_operator(s)
    value, exact = matrix_norm_between(op.matrix, op.domain.space,
                                       op.codomain.space)
    assert exact and value == pytest.approx(1.0)


_L2 = lp_space(2, 2.0)
_ROT = validate_i_operator(_L2, J2)
_TAKES_AN_OPERATOR = {
    "make_respecting": lambda T: make_respecting(_ROT, _ROT, T),
    "complexify_operator": lambda T: complexify_operator(T, _L2, _L2),
    "is_isomorphism": lambda T: is_isomorphism(make_respecting(_ROT, _ROT, T)),
    "matrix_norm_between": lambda T: matrix_norm_between(T, _L2, _L2),
    "ideal_norm": lambda T: ideal_norm("operator_norm", T, _L2, _L2),
    "decide_real-norm": lambda T: decide_real(
        IdealOracle("real", NormThreshold("operator_norm", 1.0)), [RealOperator(T, _L2, _L2)]),
    "decide_real-rank": lambda T: decide_real(
        IdealOracle("real", RankThreshold(1)), [RealOperator(T, _L2, _L2)]),
    "witness": lambda T: build_complexification_witness(
        natural_i_operator(lp_space(1, 2.0)), T),
    "factorization-R": lambda T: factorization_hypothesis_check(T, np.eye(2), _ROT),
    "factorization-S": lambda T: factorization_hypothesis_check(np.eye(2), T, _ROT),
    # direct constructions: the structure or operator checks its own matrix
    "direct-is_isomorphism": lambda T: is_isomorphism(RespectingOperator(_ROT, _ROT, T, 0.0)),
    "direct-extract_conjugation": lambda T: extract_conjugation(
        RespectingOperator(_ROT, _ROT, T, 0.0)),
    "direct-split_structure": lambda T: split_structure(
        ComplexStructure(_L2, T, BY_CONSTRUCTION)),
    "direct-squares_isomorphism": lambda T: squares_isomorphism(
        ComplexStructure(_L2, T, BY_CONSTRUCTION)),
}


@pytest.mark.parametrize("check", [is_isomorphism, extract_conjugation,
                                   verify_complex_cartesian_identities],
                         ids=["is_isomorphism", "extract_conjugation",
                              "verify_complex_cartesian_identities"])
def test_misshapen_operator_is_a_typed_error(check):
    # the operator checks only that T is finite when made; a single-item
    # function checks that T maps its domain's space to its codomain's
    s4 = euclid_structure(4, 3)
    with pytest.raises(DimensionMismatchError, match="T must be 4 x 4, got"):
        check(RespectingOperator(s4, s4, np.eye(2), 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_TAKES_AN_OPERATOR))
def test_non_finite_operator_is_a_typed_error(entry, bad):
    # a nan passes every "residual > tol" test, and an inf entry made
    # is_isomorphism answer True or numpy raise LinAlgError; a structure
    # with a nan in A came out of split_structure as a valid square
    T = np.diag([1.0, bad])
    with pytest.raises(IstructError, match="finite"):
        _TAKES_AN_OPERATOR[entry](T)


def test_a_nan_respect_residual_fails_its_tolerance():
    # A = [[0, -10], [0.1, 0]] with an exact certificate; for the finite
    # T = 1e308 (1 1; 1 1), T A - A T is [[inf, nan], [0, -inf]], whose max
    # entry is NaN, which "r > tol" let through
    s = search_i_operator(euclidean_space(2, np.diag([1.0, 100.0]))).found
    assert s.certificate.exact
    big = make_respecting(s, s, 1e154 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RespectViolationError) as exc_info:
            make_respecting(s, s, 1e308 * np.ones((2, 2)))
        assert np.isnan(exc_info.value.residual)
        # f g = 1e308 I: T A - A T is [[0, nan], [0, 0]]
        with pytest.raises(RespectViolationError):
            compose(big, big)
