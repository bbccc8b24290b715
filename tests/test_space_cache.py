"""Data derived from a space alone is computed once and cached on the space:
the whitening factors, the averaged double and the natural structure.  The
cached values must be bitwise those computed afresh, and the cache must be
used."""

import numpy as np
import pytest

from istruct import corpus as corpus_gen
from istruct.errors import DescriptorError
from istruct.ideals import (HILBERT_SCHMIDT, OPERATOR_NORM, TRACE_NORM, IdealOracle,
                            NormThreshold, RealOperator, ideal_norms)
from istruct.morphisms import _whitened, matrix_norm_between
from istruct.spaces import (EuclideanQuadratic, NormedSpace, WeightedLp, direct_sum,
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
        return direct_sum(x, x, "complexification")
    return build


BASES = [_l2, _weighted_l2, _quad]
SPACES = BASES + [_double(m) for m in BASES] + [_double(_double(_quad))]
IDS = ["l2", "wl2", "quad", "cplx-l2", "cplx-wl2", "cplx-quad", "cplx-cplx-quad"]


def _reference(functional, Ts, dom, cod):
    """The ideal norms from a fresh whitening of the two Grams."""
    sv = np.linalg.svd(_whitened(Ts, euclidean_gram(dom), euclidean_gram(cod)),
                       compute_uv=False)
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
    assert s.space is direct_sum(x, x, "complexification")
    # equal but distinct halves still combine, to an equal space
    assert space_equal(direct_sum(x, make(), "complexification"), s.space)
    with pytest.raises(DescriptorError):
        direct_sum(x, lp_space(x.dim, 1.0), "complexification")


@pytest.mark.parametrize("make", SPACES, ids=IDS)
def test_cached_arrays_are_read_only(make):
    x = make()
    N = natural_i_operator(x).A
    with pytest.raises(ValueError):
        N[0, 0] = 1.0
    for factor in x._whitening:
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0


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
