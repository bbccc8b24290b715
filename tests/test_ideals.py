import math

import numpy as np
import pytest

from istruct.corpus import random_exact_structure, random_respecting_operator
from istruct.errors import DescriptorError, StructureValidationError
from istruct.ideals import (AllOperators, IdealOracle, MatrixPredicate,
                            NoOperators, NormThreshold, RankThreshold,
                            RealOperator, PREDICATES, audit_self_conjugacy,
                            complexify_ideal, conjugate_ideal, decide_complex,
                            decide_real, ideal_norm, oracle_from_dict,
                            oracle_to_dict, realify_ideal)
from istruct.spaces import direct_sum, lp_space
from istruct.structures import natural_i_operator_matrix, validate_i_operator

L2_2 = lp_space(2, 2.0)


def real_op(matrix):
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    return RealOperator(matrix, lp_space(n, 2.0), lp_space(m, 2.0))


def complex_op(seed=0, dim=4):
    rng = np.random.default_rng(seed)
    dom = random_exact_structure(dim, rng)
    cod = random_exact_structure(dim, rng)
    return random_respecting_operator(dom, cod, rng)


# ---------------------------------------------------------------------------
# Ideal norms
# ---------------------------------------------------------------------------

def test_ideal_norm_values():
    T = np.diag([3.0, 4.0])
    assert ideal_norm("operator_norm", T, L2_2, L2_2).value == pytest.approx(4.0)
    assert ideal_norm("hilbert_schmidt", T, L2_2, L2_2).value == pytest.approx(5.0)
    assert ideal_norm("trace_norm", T, L2_2, L2_2).value == pytest.approx(7.0)


def test_ideal_norm_respects_weighted_geometry():
    # T = identity, but the codomain doubles lengths
    from istruct.spaces import NormedSpace, WeightedLp
    cod = NormedSpace(2, WeightedLp(2.0, np.array([4.0, 4.0])))
    v = ideal_norm("operator_norm", np.eye(2), L2_2, cod)
    assert v.value == pytest.approx(2.0)


def test_ideal_norm_requires_euclidean():
    with pytest.raises(DescriptorError):
        ideal_norm("operator_norm", np.eye(2), lp_space(2, 1.0), L2_2)
    with pytest.raises(DescriptorError):
        ideal_norm("frobenius", np.eye(2), L2_2, L2_2)


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

def test_threshold_decisions():
    oracle = IdealOracle("real", NormThreshold("operator_norm", 1.0))
    assert decide_real(oracle, real_op([[1.0, 0.0], [0.0, 0.5]]))
    assert not decide_real(oracle, real_op([[2.0, 0.0], [0.0, 0.5]]))


def test_rank_threshold():
    oracle = IdealOracle("real", RankThreshold(1))
    assert decide_real(oracle, real_op([[1.0, 2.0], [2.0, 4.0]]))
    assert not decide_real(oracle, real_op([[1.0, 0.0], [0.0, 1.0]]))


def test_all_none_and_predicates():
    assert decide_real(IdealOracle("real", AllOperators()), real_op([[0.0]]))
    assert not decide_real(IdealOracle("real", NoOperators()), real_op([[1.0]]))
    nz = IdealOracle("real", MatrixPredicate("nonzero",
                                             PREDICATES[("nonzero", "real")]))
    assert decide_real(nz, real_op([[1.0]]))
    assert not decide_real(nz, real_op([[0.0]]))


def test_kind_mismatch_raises():
    oracle = IdealOracle("real", AllOperators())
    with pytest.raises(DescriptorError):
        decide_complex(oracle, complex_op())
    with pytest.raises(DescriptorError):
        conjugate_ideal(oracle)
    with pytest.raises(DescriptorError):
        realify_ideal(oracle)
    with pytest.raises(DescriptorError):
        complexify_ideal(IdealOracle("complex", AllOperators()))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_complexified_real_matches_base_on_matrix():
    base = IdealOracle("real", NormThreshold("operator_norm", 1.5))
    lifted = complexify_ideal(base)
    op = complex_op(seed=1)
    direct = decide_real(base, RealOperator(op.matrix, op.domain.space,
                                            op.codomain.space))
    assert decide_complex(lifted, op) == direct


def test_realified_norm_threshold_matches_base():
    # the averaged norm halves both Gram factors, so the doubled operator has
    # the same operator norm as the original
    complex_oracle = IdealOracle("complex", NormThreshold("operator_norm", 1.0))
    dropped = realify_ideal(complex_oracle)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        T = rng.standard_normal((2, 2))
        item = real_op(T)
        expected = ideal_norm("operator_norm", T, item.domain,
                              item.codomain).value <= 1.0 + 1e-9
        assert decide_real(dropped, item) == expected


def test_conjugate_ideal_flips_structure_sensitive_decision():
    oracle = IdealOracle("complex", MatrixPredicate(
        "a-entry-sign", PREDICATES[("a-entry-sign", "complex")]))
    conj = conjugate_ideal(oracle)
    found_flip = False
    for seed in range(8):
        op = complex_op(seed=seed, dim=2)
        if decide_complex(oracle, op) != decide_complex(conj, op):
            found_flip = True
            break
    assert found_flip


def test_hs_norm_doubles_by_sqrt2():
    rng = np.random.default_rng(2)
    T = rng.standard_normal((3, 2))
    item = real_op(T)
    from istruct.morphisms import block_diag2
    from istruct.structures import natural_i_operator
    dom2 = natural_i_operator(item.domain).space
    cod2 = natural_i_operator(item.codomain).space
    base = ideal_norm("hilbert_schmidt", T, item.domain, item.codomain).value
    doubled = ideal_norm("hilbert_schmidt", block_diag2(T), dom2, cod2).value
    assert doubled == pytest.approx(math.sqrt(2.0) * base, rel=1e-12)


# ---------------------------------------------------------------------------
# Self-conjugacy audit
# ---------------------------------------------------------------------------

def test_audit_passes_for_norm_threshold():
    oracle = IdealOracle("complex", NormThreshold("operator_norm", 1.5))
    corpus = [complex_op(seed=s) for s in range(6)]
    rep = audit_self_conjugacy(oracle, corpus)
    assert rep.ok
    assert any("not a proof" in n for n in rep.notes)


def test_audit_flags_structure_sensitive_oracle():
    oracle = IdealOracle("complex", MatrixPredicate(
        "a-entry-sign", PREDICATES[("a-entry-sign", "complex")]))
    corpus = [complex_op(seed=s, dim=2) for s in range(8)]
    rep = audit_self_conjugacy(oracle, corpus)
    assert rep.status == "violated"
    assert rep.witness["conjugation"]


def test_audit_off_euclidean_is_a_typed_error():
    # A (+) -A on the averaged square of l2^2 (+)_1 l2^2 misses isometry
    plane = lp_space(2, 2.0)
    s = validate_i_operator(direct_sum(plane, plane, "sum"),
                            np.kron(np.eye(2), natural_i_operator_matrix(1)))
    rng = np.random.default_rng(9)
    corpus = [random_respecting_operator(s, s, rng)]
    oracle = IdealOracle("complex", AllOperators())
    with pytest.raises(StructureValidationError) as exc_info:
        audit_self_conjugacy(oracle, corpus)
    assert exc_info.value.certificate.isometry_residual > 1e-2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("obj", [
    {"kind": "real", "descriptor": {"type": "norm_threshold",
                                    "functional": "operator_norm", "bound": 2.0}},
    {"kind": "real", "descriptor": {"type": "rank_threshold", "r": 3}},
    {"kind": "complex", "descriptor": {"type": "predicate", "label": "nonzero"}},
    {"kind": "complex", "descriptor": {"type": "all"}},
    {"kind": "real", "descriptor": {"type": "none"}},
])
def test_oracle_serialization_roundtrip(obj):
    oracle = oracle_from_dict(obj)
    assert oracle_to_dict(oracle) == obj


def test_unknown_predicate_rejected():
    with pytest.raises(DescriptorError):
        oracle_from_dict({"kind": "real",
                          "descriptor": {"type": "predicate",
                                         "label": "does-not-exist"}})
    with pytest.raises(DescriptorError):
        # registered for complex operators only
        oracle_from_dict({"kind": "real",
                          "descriptor": {"type": "predicate",
                                         "label": "a-entry-sign"}})
