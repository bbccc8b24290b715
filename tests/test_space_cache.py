"""Data derived from a space alone is computed once and cached on the space:
the exact forms of the norm, the whitening factors, the averaged double and
the natural structure.  The cached values must be bitwise those computed
afresh, and the cache must be used."""

import math

import numpy as np
import pytest

from istruct import corpus as corpus_gen
from istruct.corpus import _random_grams
from istruct.ideals import (HILBERT_SCHMIDT, OPERATOR_NORM, TRACE_NORM, IdealOracle,
                            NormThreshold, RealOperator, ideal_norms)
from istruct.morphisms import matrix_norm_between
from istruct.spaces import (EuclideanQuadratic, NormedSpace, Polyhedral, SubspaceNorm,
                            WeightedLp, _whitening_factors, direct_sum,
                            euclidean_gram, lp_space, space_equal)
from istruct.structures import natural_i_operator
from istruct.theory import verify_theorem_real


def _l2():
    return lp_space(3, 2.0)


def _weighted_l2():
    return NormedSpace(3, WeightedLp(2.0, [0.5, 2.0, 3.0]))


def _quad():
    return NormedSpace(2, EuclideanQuadratic([[2.0, 0.3], [0.3, 0.7]]))


def _double(make):
    def build():
        x = make()
        return natural_i_operator(x).space
    return build


BASES = [_l2, _weighted_l2, _quad]
SPACES = BASES + [_double(m) for m in BASES] + [_double(_double(_quad))]
IDS = ["l2", "wl2", "quad", "cplx-l2", "cplx-wl2", "cplx-quad", "cplx-cplx-quad"]


def _reference(functional, Ts, dom, cod):
    """The ideal norms from a fresh whitening of the two Grams: L_cod' T
    L_dom^-T for their Cholesky factors G = L L'."""
    l_dom = np.linalg.cholesky(euclidean_gram(dom))
    l_cod = np.linalg.cholesky(euclidean_gram(cod))
    sv = np.linalg.svd(l_cod.T @ Ts @ np.linalg.inv(l_dom.T), compute_uv=False)
    return {OPERATOR_NORM: sv[..., 0], HILBERT_SCHMIDT: np.sqrt(np.sum(sv * sv, axis=-1)),
            TRACE_NORM: np.sum(sv, axis=-1)}[functional]


@pytest.mark.parametrize("make", SPACES, ids=IDS)
@pytest.mark.parametrize("functional", [OPERATOR_NORM, HILBERT_SCHMIDT, TRACE_NORM])
def test_cached_whitening_gives_bitwise_the_fresh_values(make, functional):
    dom, cod = make(), _quad()
    Ts = np.random.default_rng(3).standard_normal((5, cod.dim, dom.dim))
    expected = _reference(functional, Ts, dom, cod)
    assert "_whitening" not in vars(dom)
    first = ideal_norms(functional, Ts, dom, cod)
    assert "_whitening" in vars(dom) and "_whitening" in vars(cod)
    later = ideal_norms(functional, Ts, dom, cod)
    fresh = ideal_norms(functional, Ts, make(), _quad())
    for values in (first, later, fresh):
        assert np.array_equal(values, expected)
    T = Ts[0]
    expected_norm = float(_reference(OPERATOR_NORM, T, dom, cod))
    for d, c in ((dom, cod), (dom, cod), (make(), _quad())):
        assert matrix_norm_between(T, d, c) == (expected_norm, True)


@pytest.mark.parametrize("make", SPACES, ids=IDS)
def test_one_double_and_one_natural_structure_per_space(make):
    x = make()
    s = natural_i_operator(x)
    assert natural_i_operator(x) is s
    assert s.space.norm_desc.base is x
    # an equal but distinct base has an equal double
    assert space_equal(natural_i_operator(make()).space, s.space)
    assert not space_equal(natural_i_operator(lp_space(x.dim, 1.0)).space, s.space)


@pytest.mark.parametrize("make", SPACES, ids=IDS)
def test_cached_arrays_are_read_only(make):
    x = make()
    N = natural_i_operator(x).A
    with pytest.raises(ValueError):
        N[0, 0] = 1.0
    for factor in x._whitening:
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0


def _form_spaces():
    """One space of each descriptor kind, and one of each form."""
    l1, l3 = lp_space(2, 1.0), lp_space(2, 3.0)
    poly = NormedSpace(2, Polyhedral([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return [l1, l3, lp_space(2, math.inf), _l2(), _weighted_l2(),
            NormedSpace(2, WeightedLp(math.inf, [0.5, 2.0])), _quad(), poly,
            natural_i_operator(_quad()).space,
            natural_i_operator(l1).space, direct_sum(l1, poly),
            direct_sum(l3, natural_i_operator(l1).space),
            NormedSpace(1, SubspaceNorm(poly, [[1.0], [2.0]])),
            NormedSpace(1, SubspaceNorm(_quad(), [[1.0], [2.0]]))]


def _form_arrays(x: NormedSpace) -> list:
    form = x._form
    return [a for a in (form.gram, x._breaks, *(F for F, _ in form.pieces or ()))
            if a is not None]


def test_a_second_read_of_the_form_is_the_same_object():
    for x in _form_spaces():
        form = x._form
        assert x._form is form
        for part in vars(x.norm_desc).values():
            if isinstance(part, NormedSpace):
                # built from the forms of the parts, which stay cached on them
                assert "_form" in vars(part)


def test_form_arrays_are_read_only():
    for x in _form_spaces():
        for a in _form_arrays(x):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
    # a descriptor's own array enters as a read-only view; it stays writable
    quad = _quad()
    assert np.shares_memory(quad._form.gram, quad.norm_desc.gram)
    assert quad.norm_desc.gram.flags.writeable


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_stacked_whitening_factors_are_bitwise_each_grams_own(dim):
    grams = _random_grams(np.random.default_rng(dim).standard_normal((12, dim, dim)))
    Lt, Lt_inv = _whitening_factors(grams)
    for j, gram in enumerate(grams):
        alone = _whitening_factors(gram)
        assert np.array_equal(Lt[j], alone[0]) and np.array_equal(Lt_inv[j], alone[1])
    for factor in (Lt, Lt_inv):
        assert not factor.flags.writeable


def test_a_second_theorem_real_run_factors_no_gram(monkeypatch):
    rng = np.random.default_rng(11)
    shapes = [(2, 3), (3, 2), (2, 2), (3, 3), (2, 3)]
    corpus = [RealOperator(rng.standard_normal((m, n)), corpus_gen._euclidean(n),
                           corpus_gen._euclidean(m)) for n, m in shapes]
    oracles = [IdealOracle("real", NormThreshold(f, 2.0))
               for f in (OPERATOR_NORM, HILBERT_SCHMIDT, TRACE_NORM)]
    first = [verify_theorem_real(oracle, corpus).residuals for oracle in oracles]
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert [verify_theorem_real(oracle, corpus).residuals for oracle in oracles] == first
    assert calls == []
