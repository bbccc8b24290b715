import dataclasses
import functools
import json
import math
import tracemalloc
import warnings
import zlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from istruct import spaces
from istruct.corpus import _random_grams
from istruct.errors import (DescriptorError, DimensionMismatchError,
                            QuadratureError)
from istruct.spaces import (ComplexificationOfBase, EuclideanQuadratic, Lp,
                            NormedSpace, Polyhedral, SubspaceNorm,
                            WeightedLp, _arc_mean_sq, _compensated_sum,
                            _kink_angles, _parts_mean_sq, complexification_norm,
                            complexification_norm_batch, direct_sum,
                            euclidean_gram, euclidean_space, lp_space, norm,
                            norm_batch, space_equal, space_from_dict,
                            space_to_dict)
from istruct.structures import (NONE_FINITE_GROUP, ODD_DIMENSION,
                                _sampled_isometry_residual,
                                natural_i_operator_matrix, search_i_operator)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


def vectors(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


# ---------------------------------------------------------------------------
# Basic norm values
# ---------------------------------------------------------------------------

def test_lp_norm_values():
    assert norm(lp_space(3, 1.0), [1, -2, 3]) == 6.0
    assert norm(lp_space(3, 2.0), [3, 4, 0]) == 5.0
    assert norm(lp_space(3, math.inf), [1, -7, 3]) == 7.0
    assert norm(lp_space(2, 3.0), [1, 1]) == pytest.approx(2 ** (1 / 3))


def test_weighted_lp_norm():
    space = NormedSpace(2, WeightedLp(1.0, np.array([1.0, 2.0])))
    assert norm(space, [3, -1]) == 5.0


def test_quadratic_norm():
    g = np.array([[2.0, 0.0], [0.0, 1.0]])
    space = NormedSpace(2, EuclideanQuadratic(g))
    assert norm(space, [1, 1]) == pytest.approx(math.sqrt(3))


def test_polyhedral_norm():
    space = NormedSpace(2, Polyhedral(np.array([[1.0, 0], [0, 1.0], [1.0, 1.0]])))
    assert norm(space, [1, 1]) == 2.0
    assert norm(space, [1, -1]) == 1.0


def test_subspace_norm_restricts_ambient():
    ambient = lp_space(3, 1.0)
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    space = NormedSpace(2, SubspaceNorm(ambient, basis))
    assert norm(space, [2, -3]) == 5.0


def test_norm_batch_matches_single():
    space = lp_space(3, 3.0)
    X = np.random.default_rng(0).standard_normal((10, 3))
    vals = norm_batch(space, X)
    for row, v in zip(X, vals):
        assert norm(space, row) == pytest.approx(v)


@pytest.mark.parametrize("desc", [
    Lp(2.0), Lp(1.0), Lp(math.inf),
    WeightedLp(1.0, np.array([1.0, 3.0])),
    EuclideanQuadratic(np.array([[2.0, 0.5], [0.5, 1.0]])),
    Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
])
@settings(deadline=None, max_examples=25)
@given(x=vectors(2), y=vectors(2), c=finite_floats)
def test_norm_axioms(desc, x, y, c):
    space = NormedSpace(2, desc)
    nx, ny = norm(space, x), norm(space, y)
    slack = 1e-9 * (1.0 + nx + ny)
    assert nx >= 0.0
    assert norm(space, x + y) <= nx + ny + slack
    assert norm(space, c * x) == pytest.approx(abs(c) * nx, abs=1e-9, rel=1e-9)


def test_large_p_lp_norm_neither_underflows_nor_overflows():
    # |x|^p is 0 or inf for the first three vectors, and subnormal (digits
    # lost) for the last
    assert norm(lp_space(2, 1000.0), [0.1, 0.1]) == pytest.approx(0.1 * 2.0 ** 1e-3,
                                                                 rel=1e-15)
    assert norm(lp_space(2, 1000.0), [3.0, 0.0]) == 3.0
    assert norm(lp_space(2, 300.0), [0.05, 0.0]) == 0.05
    assert norm(lp_space(2, 300.0), [0.0885, 0.0]) == pytest.approx(0.0885, rel=1e-15)


@pytest.mark.parametrize("p", [300.0, 1000.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_large_p_lp_norm_is_homogeneous_at_extreme_scales(p, weighted):
    # ||t x|| = |t| ||x|| although |t x|^p under- or overflows for most rows
    space = (NormedSpace(3, WeightedLp(p, np.array([0.5, 2.0, 3.0]))) if weighted
             else lp_space(3, p))
    X = np.random.default_rng(18).standard_normal((16, 3))
    ref = norm_batch(space, X)
    for t in (1e-200, -1e-120, 1e-50, 1e-5, 1.0, -1e5, 1e50, 1e120, -1e200):
        vals = norm_batch(space, t * X)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        np.testing.assert_allclose(vals, abs(t) * ref, rtol=1e-14, atol=0.0)


def test_l2_norm_is_the_identity_gram_norm_at_extreme_scales():
    # both evaluate a row whose sum of squares over- or underflowed again
    # scaled by the same power of two, so they agree bitwise there too
    rng = np.random.default_rng(0)
    for n in range(1, 10):
        for scale in (1e-200, 1e200):
            X = rng.standard_normal((2000, n)) * scale
            np.testing.assert_array_equal(norm_batch(lp_space(n, 2.0), X),
                                          norm_batch(euclidean_space(n, np.eye(n)), X))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 20.0])
def test_lp_norm_is_exactly_homogeneous_under_powers_of_two_at_extreme_scales(p):
    # |x|**p under- or overflows at 2**(+-800) and beyond for each p; a row
    # scaled by 2**k is summed again as the same scaled row, so its norm is
    # exactly 2**k times.  At p = 2 that holds against the unscaled row too.
    X = np.random.default_rng(19).standard_normal((500, 4))
    exps = (-850, -800, 800, 850) + ((0,) if p == 2.0 else ())
    vals = {a: norm_batch(lp_space(4, p), np.ldexp(X, a)) for a in exps}
    for a in exps:
        for b in exps:
            np.testing.assert_array_equal(np.ldexp(vals[a], b - a), vals[b])


def test_gram_norm_neither_underflows_nor_overflows():
    # x'Gx is inf at 1e200 and 0 at 1e-200: those rows are evaluated again
    # scaled, and a sum inherits the value of its part
    space = euclidean_space(2, [[2.0, 0.5], [0.5, 1.0]])
    for t in (1e200, 1e-200, -1e200):
        assert norm(space, [t, 0.0]) == pytest.approx(math.sqrt(2.0) * abs(t), rel=1e-15)
    assert norm(direct_sum(space, space, "sum"), [1e200, 0.0, 1e200, 0.0]) == \
        pytest.approx(2.0 * math.sqrt(2.0) * 1e200, rel=1e-15)
    # on a stack of Grams too, where every other row keeps its bits
    grams = np.stack([euclidean_gram(space), np.eye(2)])
    X = np.array([[[1e200, 0.0], [1.0, 2.0], [0.0, 0.0]],
                  [[3e-200, 4e-200], [0.3, -0.7], [1e-170, 1e170]]])
    vals = spaces._gram_norms(grams, X)
    plain = np.sqrt(spaces._quadratic_forms(grams, X))
    kept = [(0, 1), (0, 2), (1, 1)]
    assert all(vals[k] == plain[k] for k in kept)
    np.testing.assert_allclose([vals[0, 0], vals[1, 0], vals[1, 2]],
                               [math.sqrt(2.0) * 1e200, 5e-200, math.hypot(1e-170, 1e170)],
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# Descriptor validation
# ---------------------------------------------------------------------------

def test_bad_descriptors_raise():
    with pytest.raises(DescriptorError):
        NormedSpace(2, Lp(0.5))
    with pytest.raises(DescriptorError):
        NormedSpace(2, WeightedLp(1.0, np.array([1.0, -1.0])))
    with pytest.raises(DescriptorError):
        NormedSpace(2, EuclideanQuadratic(np.array([[1.0, 2.0], [0.0, 1.0]])))
    with pytest.raises(DescriptorError):
        NormedSpace(2, EuclideanQuadratic(np.array([[1.0, 0.0], [0.0, -1.0]])))
    with pytest.raises(DescriptorError):
        NormedSpace(2, Polyhedral(np.array([[1.0, 0.0]])))  # not spanning
    with pytest.raises(DescriptorError):
        NormedSpace(3, ComplexificationOfBase(lp_space(2, 2.0)))


def test_gram_defects_of_a_stack_are_those_of_each_gram():
    asym = "Gram matrix must be symmetric"
    # |G - G'| <= 1e-12 + 1e-5 |G'| entrywise counts as symmetric: an
    # asymmetry of 1e-6 relative (or 5e-13 absolute) passes, 1e-4 (2e-12) not
    grams = np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]],
                      [[1.0, 0.0], [0.0, np.inf]], [[2.0, 1.0], [1.0, 2.0]],
                      [[2.0, 1.0], [1.0 + 1e-6, 2.0]], [[2.0, 1.0], [1.0 + 1e-4, 2.0]],
                      [[1.0, 0.0], [5e-13, 1.0]], [[1.0, 0.0], [2e-12, 1.0]],
                      [[np.inf, 1.0], [1.0, -np.inf]], [[np.nan, 0.0], [0.0, 1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from inf - inf or nan
        errors, checked = spaces._gram_errors(grams)
    assert all(e is None or type(e) is DescriptorError for e in errors)
    defects = [None if e is None else str(e) for e in errors]
    assert defects == [None, asym, "Gram matrix must be positive definite",
                       "Gram matrix must be finite", None, None, asym, None, asym,
                       "Gram matrix must be finite", "Gram matrix must be finite"]
    # each failing Gram is replaced by I, and every other one kept bitwise
    for gram, defect, kept in zip(grams, defects, checked):
        assert np.array_equal(kept, np.eye(2) if defect else gram)
    for gram, defect in zip(grams, defects):
        if defect is None:
            NormedSpace(2, EuclideanQuadratic(gram))
        else:
            with pytest.raises(DescriptorError, match=defect):
                NormedSpace(2, EuclideanQuadratic(gram))


@pytest.mark.parametrize("make", [
    lambda bad: NormedSpace(2, WeightedLp(1.0, np.array([1.0, bad]))),
    lambda bad: NormedSpace(2, EuclideanQuadratic(np.array([[1.0, 0.0], [0.0, bad]]))),
    lambda bad: NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]]))),
    lambda bad: NormedSpace(1, SubspaceNorm(lp_space(2, 1.0), np.array([[1.0], [bad]]))),
], ids=["wlp-weights", "quad-gram", "poly-functionals", "sub-basis"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_descriptor_data_rejected(make, bad):
    with pytest.raises(DescriptorError, match="finite"):
        make(bad)


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        norm(lp_space(2, 2.0), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        norm(lp_space(2, 2.0), [np.nan, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("space", [lp_space(2, 1.0), lp_space(2, 3.0),
                                   euclidean_space(2, np.diag([1.0, 2.0])),
                                   direct_sum(lp_space(2, 3.0), lp_space(2, 3.0),
                                              "complexification")],
                         ids=["l1", "l3", "quad", "cplx"])
def test_norm_batch_rejects_non_finite_rows(space, bad):
    X = np.ones((3, space.dim))
    X[1, 0] = bad
    with pytest.raises(DimensionMismatchError, match="finite"):
        norm_batch(space, X)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("base", [lp_space(2, 3.0), lp_space(2, 1.0), lp_space(2, 2.0)],
                         ids=["l3", "l1", "l2"])
def test_complexification_norm_batch_rejects_non_finite_rows(base, where, bad):
    good = np.array([[0.5, 1.0], [0.0, 1.0]])
    wrong = good.copy()
    wrong[1, 0] = bad
    X, Y = (wrong, good) if where == "x" else (good, wrong)
    with pytest.raises(DimensionMismatchError, match="finite"):
        complexification_norm_batch(base, X, Y)


def test_batch_of_huge_finite_rows_is_accepted():
    # the entries are finite although their sum overflows
    X = np.full((2, 2), 1e308)
    np.testing.assert_array_equal(norm_batch(lp_space(2, math.inf), X), 1e308)
    # x cos + y sin = x (cos + sin), and (cos + sin)^2 averages to 1
    np.testing.assert_allclose(complexification_norm_batch(lp_space(2, math.inf), X, X),
                               1e308, rtol=1e-15)


# ---------------------------------------------------------------------------
# Complexification norm
# ---------------------------------------------------------------------------

def test_euclidean_closed_form():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 5):
        g = np.eye(dim) if dim % 2 else np.diag(rng.uniform(0.5, 2.0, dim))
        space = NormedSpace(dim, EuclideanQuadratic(g))
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)
        expected = math.sqrt((x @ g @ x + y @ g @ y) / 2.0)
        assert complexification_norm(space, x, y) == pytest.approx(
            expected, abs=1e-10)


def _eight_angle_cplx_norm(base, X, Y):
    """The definition on 8 uniform angles, exact for the degree-2 trigonometric
    polynomial ||x cos phi + y sin phi||^2 of a Euclidean-like base."""
    phi = 2.0 * math.pi * np.arange(8) / 8
    sq = [norm_batch(base, X * math.cos(t) + Y * math.sin(t)) ** 2 for t in phi]
    return np.sqrt(np.mean(sq, axis=0))


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_euclidean_cplx_norm_matches_eight_angle_definition(dim):
    rng = np.random.default_rng(29)
    M = rng.standard_normal((dim, dim))
    quad_space = euclidean_space(dim, M @ M.T + 0.1 * np.eye(dim))
    for base in (quad_space, _cplx(quad_space)):
        X, Y = rng.standard_normal((32, base.dim)), rng.standard_normal((32, base.dim))
        np.testing.assert_allclose(complexification_norm_batch(base, X, Y),
                                   _eight_angle_cplx_norm(base, X, Y), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_stacked_gram_kernels_are_bitwise_one_space_at_a_time(dim):
    # each item's pair and eight rows against its own Gram, stacked, as
    # euclidean-closed-form evaluates an explicit-Gram group
    rng = np.random.default_rng(dim)
    for k in (1, 2, 7, 40):
        grams = _random_grams(rng.standard_normal((k, dim, dim)))
        X = rng.standard_normal((k, dim)) * 2.0 ** rng.integers(-30, 30, (k, 1))
        Y = rng.standard_normal((k, dim))
        Y[::3] = 0.0
        rows = rng.standard_normal((k, 8, dim))
        closed = spaces._gram_complexification_norms(grams, X, Y)
        norms = spaces._gram_norms(grams, rows)
        for i in range(k):
            space = euclidean_space(dim, grams[i])
            assert closed[i] == complexification_norm(space, X[i], Y[i])
            assert norms[i].tolist() == norm_batch(space, rows[i]).tolist()


def test_gram_complexification_norm_of_zero_pairs_is_zero():
    for base in (lp_space(3, 2.0), euclidean_space(3, np.diag([1.0, 2.0, 3.0]))):
        X = np.array([[0.0, -0.0, 0.0], [1.0, 0.0, 0.0], [-0.0, 0.0, 0.0]])
        Y = np.array([[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        got = complexification_norm_batch(base, X, Y)
        assert got.tolist() == [0.0, got[1], 0.0] and got[1] > 0.0
        assert not np.signbit(got).any()


def test_l1_plane_spot_value():
    value = complexification_norm(lp_space(2, 1.0), [1.0, 0.0], [0.0, 1.0])
    assert value == pytest.approx(math.sqrt(1.0 + 2.0 / math.pi), abs=1e-14)


def test_linf_plane_spot_value():
    value = complexification_norm(lp_space(2, math.inf), [1.0, 0.0], [0.0, 1.0])
    assert value == pytest.approx(math.sqrt(0.5 + 1.0 / math.pi), abs=1e-14)


def test_complexification_rotation_invariance_on_grid():
    base = lp_space(2, 1.0)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    ref = complexification_norm(base, x, y)
    for j in range(1, 16):
        th = 2 * math.pi * j / 16
        c, s = math.cos(th), math.sin(th)
        rot = complexification_norm(base, c * x - s * y, s * x + c * y)
        assert abs(rot - ref) <= 1e-12 * max(1.0, ref)


def test_complexification_degenerate_rows():
    base = lp_space(2, 2.0)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    Y = np.array([[0.0, 0.0], [0.0, 0.0]])
    vals = complexification_norm_batch(base, X, Y)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


def test_complexified_space_norm_dispatch():
    base = lp_space(2, 2.0)
    space = direct_sum(base, base, "complexification")
    assert space.dim == 4
    v = norm(space, [1.0, 0.0, 0.0, 0.0])
    assert v == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


# ---------------------------------------------------------------------------
# Exact complexification norms: bases that are a sum or max of |functionals|
# ---------------------------------------------------------------------------

HEX = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _exact_bases():
    rng = np.random.default_rng(7)
    bases = {}
    for dim in (2, 3, 4):
        w = rng.uniform(0.5, 2.0, dim)
        bases[f"l1-{dim}"] = lp_space(dim, 1.0)
        bases[f"linf-{dim}"] = lp_space(dim, math.inf)
        bases[f"wl1-{dim}"] = NormedSpace(dim, WeightedLp(1.0, w))
        bases[f"wlinf-{dim}"] = NormedSpace(dim, WeightedLp(math.inf, w))
    bases["hex"] = NormedSpace(2, Polyhedral(HEX))
    bases["poly-3x6"] = NormedSpace(3, Polyhedral(rng.standard_normal((6, 3))))
    bases["sub-of-l1-4"] = NormedSpace(2, SubspaceNorm(lp_space(4, 1.0),
                                                       rng.standard_normal((4, 2))))
    # an l1-sum of polytope norms is one too, with a part per summand
    bases["l1+linf"] = direct_sum(lp_space(2, 1.0), lp_space(2, math.inf), "sum")
    return bases


EXACT_BASES = _exact_bases()


def _grid_reference(base, x, y, nodes=2 ** 18):
    """Mean of ||x cos phi + y sin phi||^2 on a uniform grid, square-rooted."""
    total = 0.0
    block = 2 ** 14
    for lo in range(0, nodes, block):
        phi = 2.0 * math.pi * np.arange(lo, lo + block) / nodes
        vals = norm_batch(base, np.outer(np.cos(phi), x) + np.outer(np.sin(phi), y))
        total += float(np.sum(vals * vals))
    return math.sqrt(total / nodes)


@pytest.mark.parametrize("name", sorted(EXACT_BASES))
def test_exact_cplx_norm_matches_fine_grid(name):
    base = EXACT_BASES[name]
    assert base._form.pieces is not None
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal(base.dim), rng.standard_normal(base.dim)
        assert complexification_norm(base, x, y) == pytest.approx(
            _grid_reference(base, x, y), rel=1e-9, abs=0.0)


def test_sinusoid_pieces_recognition():
    [(F, combiner)] = lp_space(2, 1.0)._form.pieces
    assert combiner == "sum" and np.array_equal(F, np.eye(2))
    assert [c for _, c in lp_space(2, math.inf)._form.pieces] == ["max"]
    [(F, combiner)] = EXACT_BASES["sub-of-l1-4"]._form.pieces
    assert combiner == "sum" and F.shape == (4, 2)
    # an l1-sum has the parts of both summands, each on its own block
    lines = direct_sum(lp_space(1, 1.0), lp_space(1, 1.0), "sum")
    assert [(F.tolist(), c) for F, c in lines._form.pieces] == [
        ([[1.0, 0.0]], "sum"), ([[0.0, 1.0]], "sum")]
    hex_ = NormedSpace(2, Polyhedral(HEX))
    nested = direct_sum(EXACT_BASES["l1+linf"], hex_, "sum")
    assert [(F.shape, c) for F, c in nested._form.pieces] == [
        ((2, 6), "sum"), ((2, 6), "max"), ((3, 6), "max")]
    np.testing.assert_array_equal(nested._form.pieces[2][0][:, 4:], HEX)
    # every line is c|x|, c its norm at 1
    [(F, combiner)] = NormedSpace(1, SubspaceNorm(lp_space(2, 3.0),
                                                  np.ones((2, 1))))._form.pieces
    assert combiner == "sum" and F.shape == (1, 1)
    assert F[0, 0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    for other in (lp_space(2, 2.0), lp_space(2, 3.0),
                  NormedSpace(2, EuclideanQuadratic(np.eye(2))),
                  direct_sum(lp_space(1, 1.0), lp_space(1, 1.0), "complexification"),
                  direct_sum(lp_space(2, 1.0), lp_space(2, 2.0), "sum")):
        assert other._form.pieces is None


@pytest.mark.parametrize("name", sorted(EXACT_BASES))
def test_exact_cplx_norm_row_matches_batch(name):
    base = EXACT_BASES[name]
    rng = np.random.default_rng(12)
    X, Y = rng.standard_normal((64, base.dim)), rng.standard_normal((64, base.dim))
    batch = complexification_norm_batch(base, X, Y)
    single = [complexification_norm(base, x, y) for x, y in zip(X, Y)]
    np.testing.assert_allclose(single, batch, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("base", [
    NormedSpace(2, EuclideanQuadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))),
    lp_space(3, 1.0), lp_space(3, 3.0)], ids=["quad", "l1", "l3"])
def test_empty_cplx_norm_batch_is_an_empty_float_array(base):
    # a Gram base, a sinusoid base and an arc base
    empty = np.zeros((0, base.dim))
    out = complexification_norm_batch(base, empty, empty)
    assert out.shape == (0,) and out.dtype == np.float64


@pytest.mark.parametrize("name", sorted(EXACT_BASES))
def test_exact_cplx_norm_rotation_invariant_off_grid(name):
    base = EXACT_BASES[name]
    rng = np.random.default_rng(13)
    X, Y = rng.standard_normal((64, base.dim)), rng.standard_normal((64, base.dim))
    c, s = math.cos(0.1234), math.sin(0.1234)
    ref = complexification_norm_batch(base, X, Y)
    rot = complexification_norm_batch(base, c * X - s * Y, s * X + c * Y)
    assert np.max(np.abs(rot - ref) / ref) <= 1e-13


@pytest.mark.parametrize("name", sorted(EXACT_BASES) + ["l3-3"])
def test_cplx_norm_at_extreme_scales(name):
    base = EXACT_BASES.get(name, lp_space(3, 3.0))
    rng = np.random.default_rng(14)
    X, Y = rng.standard_normal((8, base.dim)), rng.standard_normal((8, base.dim))
    ref = complexification_norm_batch(base, X, Y)
    for scale in (1e-300, 1e-170, 1e170, 1e300):
        vals = complexification_norm_batch(base, scale * X, scale * Y)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        np.testing.assert_allclose(vals / scale, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", sorted(EXACT_BASES))
def test_exact_cplx_norm_degenerate_rows(name):
    base = EXACT_BASES[name]
    rng = np.random.default_rng(15)
    x = rng.standard_normal(base.dim)
    zero = np.zeros(base.dim)
    X = np.array([zero, x, x, x])
    Y = np.array([zero, zero, 2.5 * x, -x])
    vals = complexification_norm_batch(base, X, Y)
    nx = norm(base, x)
    # ||x cos + t x sin|| = |cos + t sin| ||x||, whose mean square is (1 + t^2)/2
    expected = [0.0, nx * math.sqrt(0.5), nx * math.sqrt(3.625), nx]
    np.testing.assert_allclose(vals, expected, rtol=1e-14, atol=0.0)


def test_exact_cplx_norm_functional_vanishing_on_row():
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    pad = np.zeros(1)
    x3, y3 = np.concatenate([x, pad]), np.concatenate([y, pad])
    hex3 = np.vstack([np.hstack([HEX, np.zeros((3, 1))]), [[0.0, 0.0, 1.0]]])
    pairs = [(lp_space(2, 1.0), lp_space(3, 1.0)),
             (lp_space(2, math.inf), lp_space(3, math.inf)),
             (NormedSpace(2, Polyhedral(HEX)), NormedSpace(3, Polyhedral(hex3)))]
    for flat, padded in pairs:
        assert complexification_norm(padded, x3, y3) == pytest.approx(
            complexification_norm(flat, x, y), rel=1e-15, abs=0.0)


def test_exact_cplx_norm_duplicated_and_parallel_functionals():
    rng = np.random.default_rng(17)
    X, Y = rng.standard_normal((32, 2)), rng.standard_normal((32, 2))
    hex_ = NormedSpace(2, Polyhedral(HEX))
    repeated = NormedSpace(2, Polyhedral(np.vstack([HEX, HEX[0], -HEX[1], -HEX])))
    np.testing.assert_allclose(complexification_norm_batch(repeated, X, Y),
                               complexification_norm_batch(hex_, X, Y),
                               rtol=1e-14, atol=0.0)
    # a longer parallel functional hides the shorter one
    longer = np.array([HEX[0], HEX[1], 2.0 * HEX[2]])
    with_short = NormedSpace(2, Polyhedral(np.vstack([longer, HEX[2], -HEX[2]])))
    np.testing.assert_allclose(complexification_norm_batch(with_short, X, Y),
                               complexification_norm_batch(
                                   NormedSpace(2, Polyhedral(longer)), X, Y),
                               rtol=1e-14, atol=0.0)
    # copies a few ulp off: their arcs must neither overlap nor leave a gap
    near = HEX * (1.0 + 2.0 ** -52 * rng.integers(1, 4, HEX.shape))
    nearly = NormedSpace(2, Polyhedral(np.vstack([HEX, near, -near])))
    np.testing.assert_allclose(complexification_norm_batch(nearly, X, Y),
                               complexification_norm_batch(hex_, X, Y),
                               rtol=1e-14, atol=0.0)
    # in the "sum" form, +-duplicated functionals add up
    weighted = NormedSpace(2, WeightedLp(1.0, np.array([2.0, 1.0])))
    for basis in ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]):
        sub = NormedSpace(2, SubspaceNorm(lp_space(3, 1.0), np.array(basis)))
        np.testing.assert_allclose(complexification_norm_batch(sub, X, Y),
                                   complexification_norm_batch(weighted, X, Y),
                                   rtol=1e-14, atol=0.0)


def _polytope_sums():
    rng = np.random.default_rng(19)
    l1_linf = direct_sum(lp_space(2, 1.0), lp_space(2, math.inf), "sum")
    hex_ = NormedSpace(2, Polyhedral(HEX))
    wl1 = NormedSpace(2, WeightedLp(1.0, rng.uniform(0.5, 2.0, 2)))
    return {"l1+linf": l1_linf,
            "wl1+hex": direct_sum(wl1, hex_, "sum"),
            "linf+hex": direct_sum(lp_space(2, math.inf), hex_, "sum"),
            "sub-of-l1+linf": NormedSpace(3, SubspaceNorm(l1_linf,
                                                          rng.standard_normal((4, 3)))),
            "(l1+linf)+hex": direct_sum(l1_linf, hex_, "sum"),
            # every line is c|x|, so an l1-sum of lines is a weighted l1 plane
            "l2-line+l2-line": direct_sum(lp_space(1, 2.0), lp_space(1, 2.0), "sum"),
            "l1-line+l2-line": direct_sum(lp_space(1, 1.0), lp_space(1, 2.0), "sum"),
            "l3-line+l1-line": direct_sum(lp_space(1, 3.0), lp_space(1, 1.0), "sum")}


POLYTOPE_SUMS = _polytope_sums()


@pytest.mark.parametrize("name", sorted(POLYTOPE_SUMS))
def test_parts_kernel_matches_arc_quadrature(name):
    # the arc quadrature, on the same rows and kinks, is the reference
    base = POLYTOPE_SUMS[name]
    assert len(base._form.pieces) >= 2 and euclidean_gram(base) is None
    rng = np.random.default_rng(20)
    X, Y = rng.standard_normal((400, base.dim)), rng.standard_normal((400, base.dim))
    x = X[0]
    X = np.vstack([X, [x, x, np.zeros(base.dim)]])
    Y = np.vstack([Y, [2.5 * x, np.zeros(base.dim), x]])
    kinks = _kink_angles(base, X, Y)
    np.testing.assert_allclose(_parts_mean_sq(X, Y, base._form.pieces, kinks),
                               _arc_mean_sq(base, X, Y, kinks), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(POLYTOPE_SUMS))
def test_parts_cplx_norm_rotation_invariant_to_a_few_ulp(name):
    base = POLYTOPE_SUMS[name]
    rng = np.random.default_rng(21)
    X, Y = rng.standard_normal((64, base.dim)), rng.standard_normal((64, base.dim))
    ref = complexification_norm_batch(base, X, Y)
    for t in (0.1234, 1.0, 2.5):
        c, s = math.cos(t), math.sin(t)
        rot = complexification_norm_batch(base, c * X - s * Y, s * X + c * Y)
        assert np.max(np.abs(rot - ref) / np.spacing(ref)) <= 4.0


@pytest.mark.parametrize("name", sorted(POLYTOPE_SUMS))
def test_parts_cplx_norm_does_not_depend_on_block_size(name, monkeypatch):
    # a budget of 1 puts one arc in each block; 4,000,000 puts all in one
    base = POLYTOPE_SUMS[name]
    rng = np.random.default_rng(22)
    X, Y = rng.standard_normal((16, base.dim)), rng.standard_normal((16, base.dim))
    ref = complexification_norm_batch(base, X, Y)
    for budget in (1, 4_000_000):
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", budget)
        np.testing.assert_array_equal(complexification_norm_batch(base, X, Y), ref)


def test_compensated_sum_does_not_depend_on_the_order_of_its_terms():
    terms = np.array([1e16, 1.0, -1e16, 1.0, 3.0 * 2.0 ** -60])
    rng = np.random.default_rng(23)
    table = np.array([rng.permutation(terms) for _ in range(24)])
    np.testing.assert_array_equal(_compensated_sum(table), 2.0 + 3.0 * 2.0 ** -60)


@pytest.mark.parametrize("name", sorted(POLYTOPE_SUMS))
def test_search_proves_none_on_polytope_sums(name):
    # the unit ball is a polytope, so the isometry group is finite; an odd
    # dimension is answered first
    space = POLYTOPE_SUMS[name]
    result = search_i_operator(space)
    assert result.tag == (ODD_DIMENSION if space.dim % 2 else NONE_FINITE_GROUP)
    assert result.found is None


def test_exact_cplx_norm_large_polyhedral_batch():
    rng = np.random.default_rng(18)
    F = rng.standard_normal((40, 3))
    base = NormedSpace(3, Polyhedral(F))
    X, Y = rng.standard_normal((32768, 3)), rng.standard_normal((32768, 3))
    vals = complexification_norm_batch(base, X, Y)
    # max_j |P_j|^2 / 2 <= mean of max_j (P_j . u)^2 <= max_j |P_j|^2
    longest = np.sqrt(np.max((X @ F.T) ** 2 + (Y @ F.T) ** 2, axis=1))
    assert np.all(vals >= longest * math.sqrt(0.5) * (1 - 1e-15))
    assert np.all(vals <= longest * (1 + 1e-15))
    for i in (0, 12345, 32767):
        assert vals[i] == pytest.approx(complexification_norm(base, X[i], Y[i]),
                                        rel=1e-15, abs=0.0)
    assert vals[0] == pytest.approx(_grid_reference(base, X[0], Y[0]),
                                    rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Arc quadrature: general-p bases, and sums and subspaces with such a part
# ---------------------------------------------------------------------------

def _arc_bases():
    """name -> (base, rows whose zeros are the kinks of the base norm)."""
    rng = np.random.default_rng(21)
    bases = {}
    for p in (1.2, 1.5, 3.0):
        for dim in (2, 3, 4):
            bases[f"l{p:g}-{dim}"] = (lp_space(dim, p), np.eye(dim))
    bases["l7.5-3"] = (lp_space(3, 7.5), np.eye(3))
    bases["wl3-3"] = (NormedSpace(3, WeightedLp(3.0, rng.uniform(0.5, 2.0, 3))), np.eye(3))
    bases["l3+l1"] = (direct_sum(lp_space(2, 3.0), lp_space(2, 1.0), "sum"), np.eye(4))
    basis = rng.standard_normal((4, 2))
    bases["sub-of-l3-4"] = (NormedSpace(2, SubspaceNorm(lp_space(4, 3.0), basis)), basis)
    # a Euclidean-like part kinks only where its whole block vanishes
    l1_l2 = direct_sum(lp_space(2, 1.0), lp_space(2, 2.0), "sum")
    bases["l1+l2"] = (l1_l2, np.eye(4))
    gram = np.array([[2.0, 0.5], [0.5, 1.0]])
    bases["quad+l3"] = (direct_sum(euclidean_space(2, gram), lp_space(3, 3.0), "sum"),
                        np.eye(5))
    basis = rng.standard_normal((4, 3))
    bases["sub-of-l1+l2"] = (NormedSpace(3, SubspaceNorm(l1_l2, basis)), basis)
    # nested complexifications kink where two inner kinks collide; their
    # reference takes no interior points, so it does not depend on that rule
    for name, inner in (("l1", lp_space(2, 1.0)), ("l3", lp_space(2, 3.0)),
                        ("linf", lp_space(2, math.inf)),
                        ("hex", NormedSpace(2, Polyhedral(HEX))),
                        ("l1.5-3", lp_space(3, 1.5)), ("l1+l2", l1_l2)):
        bases[f"cplx-{name}"] = (_cplx(inner), None)
    l1_cplx = direct_sum(lp_space(1, 1.0), _cplx(lp_space(2, 1.0)), "sum")
    bases["l1+cplx-l1"] = (l1_cplx, None)
    basis = rng.standard_normal((5, 3))
    bases["sub-of-l1+cplx-l1"] = (NormedSpace(3, SubspaceNorm(l1_cplx, basis)), None)
    return bases


def _cplx(base):
    return direct_sum(base, base, "complexification")


ARC_BASES = _arc_bases()


def _arc_reference(base, kinks, x, y, epsrel=2e-14):
    """sqrt of (1/pi) * integral over [0, pi) of ||x cos phi + y sin phi||^2, by
    adaptive quadrature on each arc between the zeros of the kink rows (kinks
    None: on the whole of [0, pi))."""
    zeros = []
    if kinks is not None:
        a, b = kinks @ x, kinks @ y
        zeros = np.mod(np.arctan2(a, -b)[(a != 0.0) | (b != 0.0)], np.pi)
    ends = np.unique(np.concatenate([[0.0, np.pi], zeros]))

    def f(phi):
        return norm(base, x * math.cos(phi) + y * math.sin(phi)) ** 2

    with warnings.catch_warnings():
        # quad reports roundoff once it is at the level of epsrel
        warnings.simplefilter("ignore", IntegrationWarning)
        total = sum(quad(f, lo, hi, epsabs=0.0, epsrel=epsrel, limit=400)[0]
                    for lo, hi in zip(ends[:-1], ends[1:]))
    return math.sqrt(total / np.pi)


@pytest.mark.parametrize("name", sorted(ARC_BASES))
def test_arc_cplx_norm_matches_adaptive_reference(name):
    base, kinks = ARC_BASES[name]
    assert base._form.pieces is None and euclidean_gram(base) is None
    rng = np.random.default_rng(22)
    x = rng.standard_normal(base.dim)
    noise = rng.standard_normal(base.dim)
    zero = np.zeros(base.dim)
    rows = [(rng.standard_normal(base.dim), rng.standard_normal(base.dim))
            for _ in range(3)]
    rows += [(x, 2.5 * x), (x, -0.7 * x + 1e-8 * noise), (x, zero), (zero, x)]
    for x, y in rows:
        ref = _arc_reference(base, kinks, x, y)
        for scale in (1e-300, 1.0, 1e300):
            value = complexification_norm(base, scale * x, scale * y) / scale
            assert value == pytest.approx(ref, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("name", ["l1+l2", "quad+l3"])
def test_arc_cplx_norm_parallel_euclidean_block(name):
    # the Euclidean block of y is (nearly) a multiple of that of x, so the
    # block (nearly) vanishes at one angle while the other block does not
    base, kinks = ARC_BASES[name]
    rng = np.random.default_rng(26)
    for t in (2.5, -0.7, 1e-3):
        for eps in (0.0, 1e-12, 1e-8, 1e-4):
            x, y = rng.standard_normal(base.dim), rng.standard_normal(base.dim)
            y[:2] = t * x[:2] + eps * rng.standard_normal(2)
            ref = _arc_reference(base, kinks, x, y)
            assert complexification_norm(base, x, y) == pytest.approx(ref, rel=1e-11, abs=0.0)


def _batch_rows(name):
    # a nested complexification runs a quadrature at every node: fewer rows
    return 64 if ARC_BASES[name][1] is not None else 8


@pytest.mark.parametrize("name", sorted(ARC_BASES))
def test_arc_cplx_norm_row_matches_batch(name):
    base, _ = ARC_BASES[name]
    rng = np.random.default_rng(23)
    k = _batch_rows(name)
    X, Y = rng.standard_normal((k, base.dim)), rng.standard_normal((k, base.dim))
    batch = complexification_norm_batch(base, X, Y)
    single = [complexification_norm(base, x, y) for x, y in zip(X, Y)]
    np.testing.assert_allclose(single, batch, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", sorted(ARC_BASES))
def test_arc_cplx_norm_rotation_invariant_off_grid(name):
    base, _ = ARC_BASES[name]
    rng = np.random.default_rng(24)
    k = _batch_rows(name)
    X, Y = rng.standard_normal((k, base.dim)), rng.standard_normal((k, base.dim))
    c, s = math.cos(0.1234), math.sin(0.1234)
    ref = complexification_norm_batch(base, X, Y)
    rot = complexification_norm_batch(base, c * X - s * Y, s * X + c * Y)
    assert np.max(np.abs(rot - ref) / ref) <= 1e-14


@pytest.mark.parametrize("name", sorted(ARC_BASES))
def test_arc_cplx_norm_does_not_depend_on_block_size(name, monkeypatch):
    # a budget of 1 puts one arc in each block; 4,000,000 puts a whole level
    # of these rows in one block
    base, kinks = ARC_BASES[name]
    rng = np.random.default_rng(29)
    # a nested complexification runs a quadrature at every node: one row
    k = 16 if kinks is not None else 1
    X, Y = rng.standard_normal((k, base.dim)), rng.standard_normal((k, base.dim))
    ref = complexification_norm_batch(base, X, Y)
    for budget in (1, 4_000_000):
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", budget)
        np.testing.assert_array_equal(complexification_norm_batch(base, X, Y), ref)


def _layout_spaces():
    rng = np.random.default_rng(30)
    out = {}
    for dim in (2, 3, 9):
        for p in (1.0, 2.0, 3.0, math.inf):
            out[f"l{p:g}-{dim}"] = lp_space(dim, p)
            out[f"wl{p:g}-{dim}"] = NormedSpace(dim, WeightedLp(p, rng.uniform(0.5, 2.0, dim)))
    M = rng.standard_normal((3, 3))
    out["quad-3"] = NormedSpace(3, EuclideanQuadratic(M @ M.T + 3.0 * np.eye(3)))
    out["poly-3"] = NormedSpace(3, Polyhedral(rng.standard_normal((7, 3))))
    out["sum-9"] = direct_sum(lp_space(4, 3.0), lp_space(5, 1.0), "sum")
    out["sub-3"] = NormedSpace(3, SubspaceNorm(lp_space(9, 1.5), rng.standard_normal((9, 3))))
    out["cplx-l1-4"] = _cplx(lp_space(2, 1.0))
    out["cplx-l3-4"] = _cplx(lp_space(2, 3.0))
    out["cplx-l3+l1-8"] = _cplx(ARC_BASES["l3+l1"][0])
    return out


LAYOUT_SPACES = _layout_spaces()


@pytest.mark.parametrize("name", sorted(LAYOUT_SPACES))
def test_norm_batch_does_not_depend_on_memory_layout(name):
    space = LAYOUT_SPACES[name]
    rng = np.random.default_rng(31)
    k = 8 if name.startswith("cplx") else 300
    X = rng.standard_normal((k, space.dim))
    ref = norm_batch(space, np.ascontiguousarray(X))
    wide = np.hstack([rng.standard_normal((k, 2)), X, rng.standard_normal((k, 3))])
    for Z in (np.asfortranarray(X), wide[:, 2:2 + space.dim],
              np.asfortranarray(wide)[:, 2:2 + space.dim]):
        np.testing.assert_array_equal(norm_batch(space, Z), ref)


def test_arc_quadrature_memory_stays_bounded():
    # 2048 rows of sampled rotations of N on cplx(l3), each a quadrature
    space = _cplx(lp_space(2, 3.0))
    N = natural_i_operator_matrix(2)
    tracemalloc.start()
    try:
        _sampled_isometry_residual(space, N, 128, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10_000_000


@pytest.mark.parametrize("name", ["cplx-l1", "cplx-l3", "cplx-linf", "cplx-hex",
                                  "cplx-l1.5-3"])
def test_nested_cplx_norm_on_complex_lines(name):
    # on rows (x1, t x1), (y1, t y1) every inner kink pair stays together, and
    # the norm is sqrt((1 + t^2) / 2) times that of (x1, y1) over the inner base
    base, _ = ARC_BASES[name]
    inner = base.norm_desc.base
    rng = np.random.default_rng(27)
    for t in (0.0, 0.3, -2.0):
        x, y = rng.standard_normal(inner.dim), rng.standard_normal(inner.dim)
        expected = math.sqrt((1.0 + t * t) / 2.0) * complexification_norm(inner, x, y)
        for first, second in (((x, t * x), (y, t * y)), ((t * x, x), (t * y, y))):
            value = complexification_norm(base, np.concatenate(first),
                                          np.concatenate(second))
            assert value == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_triple_nesting_settles_on_one_arc():
    # the base has no breakpoint functionals, so [0, pi) is a single arc: it
    # must reach the quadrature target or raise
    base = _cplx(ARC_BASES["cplx-l1"][0])
    rng = np.random.default_rng(28)
    x, y = rng.standard_normal(base.dim), rng.standard_normal(base.dim)
    try:
        value = complexification_norm(base, x, y)
    except QuadratureError:
        return
    reference = _arc_reference(base, None, x, y, epsrel=1e-11)
    assert value == pytest.approx(reference, rel=1e-9, abs=0.0)


def test_arc_cplx_norm_small_node_budget_raises(monkeypatch):
    base = lp_space(3, 7.5)
    rng = np.random.default_rng(25)
    X, Y = rng.standard_normal((16, 3)), rng.standard_normal((16, 3))
    with monkeypatch.context() as patch:
        patch.setattr(spaces, "QUAD_MAX_NODES", 64)
        with pytest.raises(QuadratureError, match="did not settle within 64 nodes"):
            complexification_norm_batch(base, X, Y)
    complexification_norm_batch(base, X, Y)


def test_arc_cplx_norm_budget_stop_keeps_a_settled_value(monkeypatch):
    # a generic row of l3 has two arcs; with the budget of their first panels
    # no panel can be split, so every row stops on its first estimates, which
    # are well inside QUAD_FAIL_RTOL but not yet at QUAD_RTOL
    base, kinks = ARC_BASES["l3-2"]
    rng = np.random.default_rng(25)
    X, Y = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    settled = complexification_norm_batch(base, X, Y)
    monkeypatch.setattr(spaces, "QUAD_MAX_NODES", 2 * len(spaces._GK_T))
    stopped = complexification_norm_batch(base, X, Y)
    assert np.any(stopped != settled)
    for x, y, value in zip(X, Y, stopped):
        ref = _arc_reference(base, kinks, x, y)
        assert value ** 2 == pytest.approx(ref ** 2, rel=spaces.QUAD_FAIL_RTOL, abs=0.0)


@pytest.mark.parametrize("claim", [1, 2])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("p, dim", [(3.0, 2), (1.5, 3)])
def test_rotation_batches_take_few_norm_evaluations(p, dim, seed, claim, monkeypatch):
    # the batches of the non-euclidean benchmark's general-p rotation claims:
    # 4 pairs, each turned by 16 grid angles; refining only the panels that
    # have not settled takes 8K-15K base-norm evaluations per batch
    base = lp_space(dim, p)
    claim_id = f"rotation-l{p:g}-{dim}-{claim}"
    rng = np.random.default_rng([seed, zlib.crc32(claim_id.encode())])
    xy = rng.standard_normal((4, 2, dim))
    x, y = xy[:, None, 0, :], xy[:, None, 1, :]
    theta = 2.0 * np.pi * np.arange(16) / 16
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    X, Y = (c * x - s * y).reshape(-1, dim), (s * x + c * y).reshape(-1, dim)
    rows = []
    norm_rows = spaces._norm_rows

    def counted(space, Z):
        rows.append(len(Z))
        return norm_rows(space, Z)

    monkeypatch.setattr(spaces, "_norm_rows", counted)
    vals = complexification_norm_batch(base, X, Y).reshape(4, 16)
    assert sum(rows) <= 16_000
    assert np.max(np.abs(vals / vals[:, :1] - 1.0)) <= 1e-14


def _solve(A, b):
    """x with A x = b, by Gaussian elimination with partial pivoting, in the
    arithmetic of the entries (here Fraction or Decimal)."""
    n = len(b)
    M = [list(row) + [v] for row, v in zip(A, b)]
    for i in range(n):
        pivot = max(range(i, n), key=lambda r: abs(M[r][i]))
        M[i], M[pivot] = M[pivot], M[i]
        for r in range(i + 1, n):
            factor = M[r][i] / M[i][i]
            M[r] = [a - factor * c for a, c in zip(M[r], M[i])]
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (M[i][n] - sum(M[i][j] * x[j] for j in range(i + 1, n))) / M[i][i]
    return x


def _dqk21_exact(guess_x):
    """dqk21's abscissae x >= 0, Kronrod weights and Gauss weights on [-1, 1]
    (in the order of spaces._XGK, _WGK, _WG) to 50 digits, derived afresh.

    The Gauss abscissae are the zeros of P10; the Kronrod abscissae added to
    them are those of the Stieltjes polynomial E11, the odd x^11 + ... with
    integral E11 P10 x^k = 0 for odd k < 11.  Each zero is found by Newton's
    method from guess_x; the weights are the ones that integrate the even
    powers exactly."""
    moment = [Fraction(2, m + 1) if m % 2 == 0 else Fraction(0) for m in range(64)]
    legendre = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(1, 10):
        shifted = [Fraction(0)] + legendre[n]
        previous = legendre[n - 1] + [Fraction(0), Fraction(0)]
        legendre.append([((2 * n + 1) * a - n * b) / (n + 1)
                         for a, b in zip(shifted, previous)])
    p10 = legendre[10]

    def weighted(k, j):  # integral of x^j P10 x^k
        return sum(c * moment[i + j + k] for i, c in enumerate(p10))

    odd = [1, 3, 5, 7, 9]
    c = _solve([[weighted(k, j) for j in odd] for k in odd], [-weighted(k, 11) for k in odd])
    e11 = [Fraction(0)] * 12
    e11[11] = Fraction(1)
    for j, cj in zip(odd, c):
        e11[j] = cj
    with localcontext() as ctx:
        ctx.prec = 50
        x = []
        for i, guess in enumerate(guess_x):
            poly = [Decimal(v.numerator) / Decimal(v.denominator)
                    for v in (p10 if i % 2 else e11)]
            root = Decimal(guess)
            for _ in range(8):
                value = slope = Decimal(0)
                for a in reversed(poly):  # Horner, with the derivative alongside
                    slope = slope * root + value
                    value = value * root + a
                root -= value / slope
            x.append(root)
        two = Decimal(2)
        kronrod = _solve([[two * xi ** (2 * m) if i < 10 else Decimal(int(m == 0))
                           for i, xi in enumerate(x)] for m in range(11)],
                         [two / (2 * m + 1) for m in range(11)])
        gauss = _solve([[two * xi ** (2 * m) for xi in x[1::2]] for m in range(5)],
                       [two / (2 * m + 1) for m in range(5)])
    return x, kronrod, gauss


def test_gauss_kronrod_table_is_dqk21():
    # every literal is the double nearest to its value derived afresh
    x, kronrod, gauss = _dqk21_exact(spaces._XGK)
    for literals, exact in ((spaces._XGK, x), (spaces._WGK, kronrod), (spaces._WG, gauss)):
        assert list(literals) == [float(v) for v in exact]
    # the rules on [0, 1] the quadrature uses
    t, wk, wg = spaces._GK_T, spaces._GK_W, spaces._G_W
    assert t.shape == wk.shape == (21,) and wg.shape == (10,)
    assert 0.0 < t[0] and np.all(np.diff(t) > 0.0) and t[-1] < 1.0
    # symmetric about 1/2, and each weight set sums to 1
    np.testing.assert_allclose(t + t[::-1], 1.0, rtol=0.0, atol=2e-16)
    np.testing.assert_array_equal(wk, wk[::-1])
    np.testing.assert_array_equal(wg, wg[::-1])
    assert abs(math.fsum(wk) - 1.0) <= 1e-15 and abs(math.fsum(wg) - 1.0) <= 1e-15
    # Kronrod is exact up to degree 31 and Gauss, on the odd-indexed nodes,
    # up to degree 19
    for nodes, weights, degree in ((t, wk, 31), (t[1::2], wg, 19)):
        for k in range(degree + 1):
            assert abs(math.fsum(weights * nodes ** k) - 1.0 / (k + 1)) <= 1e-15, k
    # those are the 10-point Gauss-Legendre nodes and weights
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(t[1::2], (x + 1.0) / 2.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(wg, w / 2.0, rtol=0.0, atol=1e-15)


def test_breakpoint_functionals_recognition():
    l1, linf = lp_space(2, 1.0), lp_space(2, math.inf)
    crossings = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_array_equal(lp_space(3, 3.0)._form.breaks, np.eye(3))
    np.testing.assert_array_equal(linf._form.breaks, crossings)
    stacked = np.zeros((6, 4))
    stacked[:2, :2] = np.eye(2)
    stacked[2:, 2:] = crossings
    np.testing.assert_array_equal(direct_sum(l1, linf, "sum")._form.breaks, stacked)
    hex_sum = direct_sum(NormedSpace(2, Polyhedral(HEX)), l1, "sum")
    assert hex_sum._form.breaks.shape == (9 + 2, 4)
    # a Euclidean-like norm, alone or as a part, contributes its coordinate rows
    np.testing.assert_array_equal(
        direct_sum(l1, lp_space(3, 2.0), "sum")._form.breaks, np.eye(5))
    for euclidean in (lp_space(2, 2.0),
                      NormedSpace(2, WeightedLp(2.0, np.array([1.0, 2.0]))),
                      NormedSpace(2, EuclideanQuadratic(np.eye(2))),
                      NormedSpace(1, SubspaceNorm(lp_space(2, 2.0), np.ones((2, 1)))),
                      _cplx(lp_space(2, 2.0))):
        np.testing.assert_array_equal(euclidean._form.breaks, np.eye(euclidean.dim))
    basis = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(
        NormedSpace(1, SubspaceNorm(lp_space(3, 1.5), basis))._form.breaks, basis)
    for name in ("cplx-l3", "cplx-l1", "l1+cplx-l1", "sub-of-l1+cplx-l1"):
        assert ARC_BASES[name][0]._form.breaks is None


def test_nested_kink_angles_skip_identical_pairs():
    # hex's crossing rows f1 + f2, f1 - f3 and f2 - f3 are f3, -f2 and -f1, so
    # those pairs' products vanish identically and give no angle
    rng = np.random.default_rng(30)
    X, Y = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    angles = _kink_angles(ARC_BASES["cplx-hex"][0], X, Y)
    pairs = 9 * 8 // 2
    assert angles.shape == (4, 2 * pairs + 9)
    missing = np.isnan(angles)
    k, l = np.triu_indices(9, k=1)
    same = np.flatnonzero(((k == 2) & (l == 3)) | ((k == 1) & (l == 7)) | ((k == 0) & (l == 8)))
    assert np.all(missing[:, same]) and np.all(missing[:, pairs + same])
    assert np.all((angles[~missing] >= 0.0) & (angles[~missing] < np.pi))
    # a triple nesting has no angles at all
    assert _kink_angles(_cplx(ARC_BASES["cplx-l1"][0]), np.ones((3, 8)),
                        np.ones((3, 8))).shape == (3, 0)


# ---------------------------------------------------------------------------
# Direct sums and Gram recognition
# ---------------------------------------------------------------------------

def test_direct_sum_modes():
    a, b = lp_space(2, 1.0), lp_space(3, 2.0)
    s = direct_sum(a, b, "sum")
    assert s.dim == 5
    assert norm(s, [1, 1, 3, 4, 0]) == pytest.approx(2.0 + 5.0)
    with pytest.raises(DescriptorError):
        direct_sum(a, b, "complexification")
    with pytest.raises(DescriptorError):
        direct_sum(a, a, "tensor")


def test_euclidean_gram_recognition():
    assert np.array_equal(euclidean_gram(lp_space(3, 2.0)), np.eye(3))
    w = NormedSpace(2, WeightedLp(2.0, np.array([2.0, 3.0])))
    assert np.allclose(euclidean_gram(w), np.diag([2.0, 3.0]))
    assert euclidean_gram(lp_space(3, 1.0)) is None
    cplx = direct_sum(lp_space(2, 2.0), lp_space(2, 2.0), "complexification")
    assert np.allclose(euclidean_gram(cplx), np.eye(4) / 2.0)
    sub = NormedSpace(1, SubspaceNorm(lp_space(2, 2.0),
                                      np.array([[1.0], [1.0]])))
    assert np.allclose(euclidean_gram(sub), [[2.0]])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", [
    lp_space(3, 1.0),
    lp_space(2, math.inf),
    NormedSpace(2, WeightedLp(1.5, np.array([1.0, 2.0]))),
    NormedSpace(2, EuclideanQuadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))),
    NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0]]))),
    direct_sum(lp_space(2, 1.0), lp_space(2, 1.0), "complexification"),
    direct_sum(lp_space(1, 1.0), lp_space(2, 2.0), "sum"),
    NormedSpace(1, SubspaceNorm(lp_space(2, 1.0), np.array([[1.0], [0.0]]))),
])
def test_space_serialization_roundtrip(space):
    back = space_from_dict(space_to_dict(space))
    assert space_equal(space, back)


@pytest.mark.parametrize("make, error, match", [
    (lambda: NormedSpace(0, Lp(2.0)), DescriptorError, "dimension must be positive"),
    (lambda: NormedSpace(2, WeightedLp(1.0, np.ones(3))), DescriptorError,
     "weight vector length"),
    (lambda: NormedSpace(2, WeightedLp(0.5, np.ones(2))), DescriptorError,
     "WeightedLp requires p >= 1"),
    (lambda: NormedSpace(2, EuclideanQuadratic(np.eye(3))), DescriptorError,
     "Gram matrix shape"),
    (lambda: NormedSpace(2, Polyhedral(np.ones((3, 3)))), DescriptorError,
     "rows of length dim"),
    (lambda: NormedSpace(2, Polyhedral(np.ones(2))), DescriptorError,
     "rows of length dim"),
    (lambda: NormedSpace(3, spaces.SumNorm(lp_space(1, 1.0), lp_space(1, 1.0))),
     DescriptorError, "sum-norm dim"),
    (lambda: NormedSpace(2, SubspaceNorm(lp_space(3, 1.0), np.ones((2, 2)))),
     DescriptorError, "basis must be ambient.dim x dim"),
    (lambda: NormedSpace(2, SubspaceNorm(lp_space(3, 1.0), np.ones((3, 2)))),
     DescriptorError, "full column rank"),
    (lambda: NormedSpace(2, object()), DescriptorError, "unknown descriptor object"),
    (lambda: norm_batch(lp_space(2, 1.0), np.ones((3, 3))), DimensionMismatchError,
     "batch of dim-2 rows"),
    (lambda: norm_batch(lp_space(2, 1.0), np.ones(2)), DimensionMismatchError,
     "batch of dim-2 rows"),
    (lambda: complexification_norm_batch(lp_space(2, 3.0), np.ones((3, 2)),
                                         np.ones((2, 2))),
     DimensionMismatchError, "X, Y must both be"),
    (lambda: complexification_norm_batch(lp_space(2, 3.0), np.ones((3, 3)),
                                         np.ones((3, 3))),
     DimensionMismatchError, "X, Y must both be"),
], ids=["dim-0", "weights-length", "weighted-p", "gram-shape", "functionals-width",
        "functionals-flat", "sum-dim", "basis-shape", "basis-rank", "unknown",
        "norm-batch-width", "norm-batch-flat", "cplx-batch-pair", "cplx-batch-width"])
def test_bad_descriptor_or_batch_is_a_typed_error(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_space_from_dict_rejects_unknown_kind():
    with pytest.raises(DescriptorError):
        space_from_dict({"dim": 2, "norm": {"kind": "mystery"}})


_L1_2 = {"dim": 2, "norm": {"kind": "lp", "p": 1.0}}
_L2_1 = {"dim": 1, "norm": {"kind": "lp", "p": 2.0}}


@pytest.mark.parametrize("space, serial", [
    (lp_space(3, 1.0), {"dim": 3, "norm": {"kind": "lp", "p": 1.0}}),
    (lp_space(2, math.inf), {"dim": 2, "norm": {"kind": "lp", "p": "inf"}}),
    (NormedSpace(2, WeightedLp(1.5, np.array([1.0, 2.0]))),
     {"dim": 2, "norm": {"kind": "wlp", "p": 1.5, "weights": [1.0, 2.0]}}),
    (NormedSpace(2, WeightedLp(math.inf, np.array([1.0, 2.0]))),
     {"dim": 2, "norm": {"kind": "wlp", "p": "inf", "weights": [1.0, 2.0]}}),
    (NormedSpace(2, EuclideanQuadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))),
     {"dim": 2, "norm": {"kind": "quad", "G": [[2.0, 0.5], [0.5, 1.0]]}}),
    (NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
     {"dim": 2, "norm": {"kind": "poly",
                         "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}}),
    (direct_sum(lp_space(2, 1.0), lp_space(2, 1.0), "complexification"),
     {"dim": 4, "norm": {"kind": "cplx", "base": _L1_2}}),
    (direct_sum(lp_space(2, 1.0), lp_space(1, 2.0), "sum"),
     {"dim": 3, "norm": {"kind": "sum", "left": _L1_2, "right": _L2_1}}),
    (NormedSpace(1, SubspaceNorm(lp_space(2, 1.0), np.array([[1.0], [3.0]]))),
     {"dim": 1, "norm": {"kind": "sub", "ambient": _L1_2, "basis": [[1.0], [3.0]]}}),
], ids=["lp", "lp-inf", "wlp", "wlp-inf", "quad", "poly", "cplx", "sum", "sub"])
def test_descriptor_serial_form(space, serial):
    # json.dumps without sort_keys sees the key order and int/float types
    assert json.dumps(space_to_dict(space)) == json.dumps(serial)
    _assert_same_fields(space_from_dict(serial), space)


def _assert_same_fields(a, b):
    """a and b are the same space, descriptor field by descriptor field."""
    assert a.dim == b.dim
    assert type(a.norm_desc) is type(b.norm_desc)
    for field in dataclasses.fields(a.norm_desc):
        x, y = getattr(a.norm_desc, field.name), getattr(b.norm_desc, field.name)
        if isinstance(x, NormedSpace):
            _assert_same_fields(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype == float and np.array_equal(x, y)
        else:
            assert type(x) is type(y) and x == y, field.name


def test_descriptor_serial_form_rejects_unknown_types():
    with pytest.raises(DescriptorError, match="unknown descriptor object"):
        spaces.descriptor_to_dict(object())
    with pytest.raises(DescriptorError, match="unknown descriptor kind 'mystery'"):
        spaces.descriptor_from_dict({"kind": "mystery"})


def _error_state_calls() -> list:
    """(label, call) of the four norm entry points on 12 spaces at 3 scales:
    1 with one entry 1e-300, 1e-200 and 1e200."""
    l1, l2, linf = lp_space(2, 1.0), lp_space(2, 2.0), lp_space(2, math.inf)
    w = np.array([0.5, 1.0, 2.0])
    spaces = {
        "l1": lp_space(3, 1.0), "l2": lp_space(3, 2.0), "l3": lp_space(3, 3.0),
        "linf": lp_space(3, math.inf), "wl1": NormedSpace(3, WeightedLp(1.0, w)),
        "wl3": NormedSpace(3, WeightedLp(3.0, w)),
        "gram": euclidean_space(3, [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
        "hex": NormedSpace(2, Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
        "l1+linf": direct_sum(l1, linf, "sum"), "l1+l2": direct_sum(l1, l2, "sum"),
        "sub-l3": NormedSpace(2, SubspaceNorm(lp_space(3, 3.0), np.array(
            [[1.0, 0.0], [0.5, 1.0], [0.0, -2.0]]))),
        "cplx-l1": NormedSpace(4, ComplexificationOfBase(l1)),
    }
    calls = []
    for name, space in spaces.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x, y = rng.standard_normal((2, space.dim))
        for scale in (1.0, 1e-200, 1e200):
            if scale == 1.0:
                x = x.copy()
                x[0] = 1e-300
            xs, ys = x * scale, y * scale
            X, Y = np.stack([xs, ys]), np.stack([ys, -xs])
            label = f"{name} at {scale:g}"
            calls += [
                (f"norm {label}", functools.partial(norm, space, xs)),
                (f"norm_batch {label}", functools.partial(norm_batch, space, X)),
                (f"complexification_norm {label}",
                 functools.partial(complexification_norm, space, xs, ys)),
                (f"complexification_norm_batch {label}",
                 functools.partial(complexification_norm_batch, space, X, Y))]
    return calls


def test_norm_entry_points_give_the_same_bits_under_any_error_state():
    # the entry points fix the over- and underflow modes themselves: 50 of
    # these calls raised FloatingPointError under np.errstate(all="raise"),
    # and a norm that overflows warned of an overflow in ldexp
    calls = _error_state_calls()
    assert len(calls) == 144
    differ = []
    for label, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
                default = np.asarray(call())
            try:
                with np.errstate(all="raise"):
                    strict = np.asarray(call())
            except FloatingPointError as exc:
                differ.append((label, str(exc)))
                continue
        if strict.tobytes() != default.tobytes():
            differ.append((label, default, strict))
    assert differ == []
    # a norm beyond the largest float is inf, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.0, 3.0):
            assert norm(lp_space(2, p), [1.5e308, 1.5e308]) == math.inf
