import math

import numpy as np
import pytest

from istruct.corpus import (random_euclidean_space, random_exact_structure,
                            random_respecting_operator)
from istruct.errors import (DescriptorError, DimensionMismatchError,
                            RespectViolationError, StructureValidationError)
from istruct.ideals import (AllOperators, ComplexifiedReal, ConjugateOf,
                            IdealOracle, MatrixPredicate, NoOperators,
                            NormThreshold, RankThreshold, RealFormOf,
                            RealOperator, PREDICATES, THRESHOLD_ATOL,
                            audit_self_conjugacy, complexify_ideal,
                            conjugate_ideal, decide_complex, decide_real,
                            ideal_norm, ideal_norms, oracle_from_dict,
                            oracle_to_dict, realify_ideal)
from istruct.morphisms import (RespectingOperator, block_diag2,
                               complexify_operator, conjugate_operator,
                               respect_residual)
from istruct.spaces import EuclideanQuadratic, NormedSpace, direct_sum, lp_space
from istruct.structures import natural_i_operator_matrix, validate_i_operator
from istruct.theory import split_structure, verify_theorem_complex

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
    assert decide_real(oracle, [real_op([[1.0, 0.0], [0.0, 0.5]])])[0]
    assert not decide_real(oracle, [real_op([[2.0, 0.0], [0.0, 0.5]])])[0]


def test_rank_threshold():
    oracle = IdealOracle("real", RankThreshold(1))
    assert decide_real(oracle, [real_op([[1.0, 2.0], [2.0, 4.0]])])[0]
    assert not decide_real(oracle, [real_op([[1.0, 0.0], [0.0, 1.0]])])[0]


def test_all_none_and_predicates():
    assert decide_real(IdealOracle("real", AllOperators()), [real_op([[0.0]])])[0]
    assert not decide_real(IdealOracle("real", NoOperators()), [real_op([[1.0]])])[0]
    nz = IdealOracle("real", MatrixPredicate("nonzero",
                                             PREDICATES[("nonzero", "real")]))
    assert decide_real(nz, [real_op([[1.0]])])[0]
    assert not decide_real(nz, [real_op([[0.0]])])[0]


def test_kind_mismatch_raises():
    oracle = IdealOracle("real", AllOperators())
    with pytest.raises(DescriptorError):
        decide_complex(oracle, [complex_op()])
    with pytest.raises(DescriptorError):
        conjugate_ideal(oracle)
    with pytest.raises(DescriptorError):
        realify_ideal(oracle)
    with pytest.raises(DescriptorError):
        complexify_ideal(IdealOracle("complex", AllOperators()))


# ---------------------------------------------------------------------------
# Corpus decisions against one decision per operator
# ---------------------------------------------------------------------------

def reference_real(oracle, item):
    """The decision on one RealOperator, written out per descriptor."""
    d = oracle.descriptor
    if isinstance(d, AllOperators):
        return True
    if isinstance(d, NoOperators):
        return False
    if isinstance(d, NormThreshold):
        value = ideal_norm(d.functional, item.matrix, item.domain, item.codomain).value
        return value <= d.bound + THRESHOLD_ATOL
    if isinstance(d, RankThreshold):
        return int(np.linalg.matrix_rank(item.matrix)) <= d.r
    if isinstance(d, MatrixPredicate):
        return bool(d.fn(item.matrix, item.domain, item.codomain))
    assert isinstance(d, RealFormOf)
    return reference_complex(d.base, complexify_operator(
        item.matrix, item.domain, item.codomain))


def reference_complex(oracle, op):
    """The decision on one [T, A, B], written out per descriptor."""
    d = oracle.descriptor
    if isinstance(d, ComplexifiedReal):
        return reference_real(d.base, RealOperator(op.matrix, op.domain.space,
                                                   op.codomain.space))
    if isinstance(d, ConjugateOf):
        return reference_complex(d.base, conjugate_operator(op))
    if isinstance(d, MatrixPredicate):
        return bool(d.fn(op.matrix, op.domain.A, op.codomain.A,
                         op.domain.space, op.codomain.space))
    return reference_real(IdealOracle("real", d),
                          RealOperator(op.matrix, op.domain.space, op.codomain.space))


def mixed_real_corpus(seed, count=80):
    """Operators between l2 and random Gram spaces of dims 1-4, some spaces
    shared, some equal but distinct objects; some zero or rank-one."""
    rng = np.random.default_rng(seed)
    pool = []
    for dim in range(1, 5):
        pool += [lp_space(dim, 2.0), random_euclidean_space(dim, rng, True)]
        # an equal copy of the Gram space, a distinct object
        pool.append(NormedSpace(dim, EuclideanQuadratic(pool[-1].norm_desc.gram.copy())))
    corpus = []
    for k in range(count):
        dom, cod = pool[int(rng.integers(len(pool)))], pool[int(rng.integers(len(pool)))]
        T = rng.standard_normal((cod.dim, dom.dim))
        if k % 7 == 0:
            T = np.zeros_like(T)
        elif k % 5 == 0:
            T = np.outer(rng.standard_normal(cod.dim), rng.standard_normal(dom.dim))
        corpus.append(RealOperator(T, dom, cod))
    return corpus


def mixed_complex_corpus(seed, count=60):
    """[T, A, B] over signed pairings on l2^2 and l2^4, and T (+) T between
    complexifications of random Gram spaces; some T are zero."""
    rng = np.random.default_rng(seed)
    grams = [random_euclidean_space(dim, rng, True) for dim in (1, 2)]
    corpus = []
    for k in range(count):
        if k % 3 == 0:
            dom, cod = grams[int(rng.integers(2))], grams[int(rng.integers(2))]
            T = rng.standard_normal((cod.dim, dom.dim))
            corpus.append(complexify_operator(0.0 * T if k % 9 == 0 else T, dom, cod))
            continue
        dom = random_exact_structure(2 * int(rng.integers(1, 3)), rng)
        cod = random_exact_structure(2 * int(rng.integers(1, 3)), rng)
        op = random_respecting_operator(dom, cod, rng)
        if k % 7 == 0:
            op = RespectingOperator(op.domain, op.codomain, 0.0 * op.matrix, 0.0)
        corpus.append(op)
    return corpus


def _real_oracles():
    base = [NormThreshold("operator_norm", 1.5), NormThreshold("hilbert_schmidt", 2.0),
            NormThreshold("trace_norm", 2.5), RankThreshold(1),
            MatrixPredicate("nonzero", PREDICATES[("nonzero", "real")]),
            AllOperators(), NoOperators()]
    oracles = [IdealOracle("real", d) for d in base]
    # RealFormOf(ComplexifiedReal(.)), and the real form of a conjugate
    oracles += [realify_ideal(complexify_ideal(o)) for o in oracles]
    oracles.append(realify_ideal(conjugate_ideal(IdealOracle(
        "complex", NormThreshold("operator_norm", 1.5)))))
    return oracles


def _complex_oracles():
    base = [NormThreshold("operator_norm", 1.5), NormThreshold("hilbert_schmidt", 2.0),
            NormThreshold("trace_norm", 2.5), RankThreshold(2),
            MatrixPredicate("nonzero", PREDICATES[("nonzero", "complex")]),
            MatrixPredicate("a-entry-sign", PREDICATES[("a-entry-sign", "complex")]),
            AllOperators(), NoOperators()]
    oracles = [IdealOracle("complex", d) for d in base]
    # ConjugateOf(.) and ComplexifiedReal(RealFormOf(.))
    oracles += [conjugate_ideal(o) for o in oracles]
    oracles += [complexify_ideal(realify_ideal(o)) for o in oracles]
    oracles.append(complexify_ideal(IdealOracle("real", RankThreshold(1))))
    return oracles


@pytest.mark.parametrize("seed", [0, 1])
def test_real_corpus_decisions_match_one_at_a_time(seed):
    corpus = mixed_real_corpus(seed)
    for oracle in _real_oracles():
        got = decide_real(oracle, corpus)
        assert got.dtype == bool and got.shape == (len(corpus),)
        assert got.tolist() == [reference_real(oracle, item) for item in corpus]
        assert decide_real(oracle, corpus[:1]).tolist() == [reference_real(oracle, corpus[0])]
        assert decide_real(oracle, []).shape == (0,)


@pytest.mark.parametrize("seed", [0, 1])
def test_complex_corpus_decisions_match_one_at_a_time(seed):
    corpus = mixed_complex_corpus(seed)
    for oracle in _complex_oracles():
        got = decide_complex(oracle, corpus)
        assert got.dtype == bool and got.shape == (len(corpus),)
        assert got.tolist() == [reference_complex(oracle, op) for op in corpus]
        assert decide_complex(oracle, corpus[:1]).tolist() == [reference_complex(oracle, corpus[0])]
        assert decide_complex(oracle, []).shape == (0,)


def test_corpus_decisions_are_not_trivial():
    # the thresholds above split the corpora, so the comparison has teeth
    real = mixed_real_corpus(0)
    cplx = mixed_complex_corpus(0)
    for oracle in _real_oracles()[:5]:
        assert 0 < decide_real(oracle, real).sum() < len(real)
    for oracle in _complex_oracles()[:6]:
        assert 0 < decide_complex(oracle, cplx).sum() < len(cplx)


@pytest.mark.parametrize("functional", ["operator_norm", "hilbert_schmidt", "trace_norm"])
def test_stacked_ideal_norms_are_bitwise_per_matrix(functional):
    rng = np.random.default_rng(5)
    for m, n in [(1, 3), (3, 1), (4, 4), (8, 4), (8, 8)]:
        dom, cod = random_euclidean_space(n, rng, True), random_euclidean_space(m, rng, True)
        Ts = rng.standard_normal((20, m, n))
        stacked = ideal_norms(functional, Ts, dom, cod)
        assert stacked.tolist() == [ideal_norm(functional, T, dom, cod).value for T in Ts]


# ---------------------------------------------------------------------------
# Typed errors on the corpus path
# ---------------------------------------------------------------------------

def test_corpus_with_a_complex_oracle_for_real_operators_raises():
    corpus = mixed_real_corpus(2, count=10)
    with pytest.raises(DescriptorError, match="real-kind"):
        decide_real(IdealOracle("complex", AllOperators()), corpus)
    with pytest.raises(DescriptorError, match="not valid for a real oracle"):
        decide_real(IdealOracle("real", ConjugateOf(IdealOracle("complex", AllOperators()))),
                    corpus)


@pytest.mark.parametrize("descriptor", [
    NormThreshold("operator_norm", 1.0), RankThreshold(1), AllOperators(),
    MatrixPredicate("nonzero", PREDICATES[("nonzero", "real")])])
def test_corpus_with_a_misshapen_operator_raises(descriptor):
    good = [real_op(np.eye(2)), real_op([[1.0, 2.0], [3.0, 4.0]])]
    bad = RealOperator(np.ones((3, 2)), lp_space(2, 2.0), lp_space(2, 2.0))
    for oracle in (IdealOracle("real", descriptor),
                   realify_ideal(complexify_ideal(IdealOracle("real", descriptor)))):
        with pytest.raises(DimensionMismatchError, match="T must be 2 x 2"):
            decide_real(oracle, good[:1] + [bad] + good[1:])


def _recording_predicate(kind, calls):
    fn = PREDICATES[("nonzero", kind)]

    def recorded(*args):
        calls.append(1)
        return fn(*args)

    return IdealOracle(kind, MatrixPredicate("nonzero", recorded))


def test_real_shape_error_names_the_first_misshapen_operator():
    # item 1 (l2^3, 2 x 2) and item 2 (l2^2, 4 x 2) are both misshapen, in
    # different groups; no group is decided before the error
    l2_3 = lp_space(3, 2.0)
    corpus = [real_op(np.eye(2)), RealOperator(np.eye(2), l2_3, l2_3),
              RealOperator(np.ones((4, 2)), L2_2, L2_2)]
    calls = []
    for oracle in (_recording_predicate("real", calls),
                   realify_ideal(complexify_ideal(_recording_predicate("real", calls)))):
        with pytest.raises(DimensionMismatchError, match=r"T must be 3 x 3, got \(2, 2\)"):
            decide_real(oracle, corpus)
    assert calls == []


def test_complex_shape_error_names_the_first_misshapen_operator():
    # the corpus above, with structures: item 1 on l2^4, item 2 on l2^2
    rng = np.random.default_rng(3)
    s2, s4 = random_exact_structure(2, rng), random_exact_structure(4, rng)
    corpus = [RespectingOperator(s2, s2, np.eye(2), 0.0),
              RespectingOperator(s4, s4, np.eye(2), 0.0),
              RespectingOperator(s2, s2, np.ones((4, 2)), 0.0)]
    calls = []
    oracle = _recording_predicate("complex", calls)
    for run in (lambda: decide_complex(oracle, corpus),
                lambda: decide_complex(conjugate_ideal(oracle), corpus),
                lambda: audit_self_conjugacy(oracle, corpus),
                lambda: verify_theorem_complex(oracle, corpus)):
        with pytest.raises(DimensionMismatchError, match=r"T must be 4 x 4, got \(2, 2\)"):
            run()
    assert calls == []


def test_corpus_with_a_norm_threshold_off_euclidean_raises():
    l1 = lp_space(2, 1.0)
    corpus = [real_op(np.eye(2)), RealOperator(np.eye(2), l1, l1), real_op([[2.0]])]
    with pytest.raises(DescriptorError, match="Euclidean-like"):
        decide_real(IdealOracle("real", NormThreshold("operator_norm", 1.0)), corpus)


def test_audit_rejects_the_first_square_that_misses_respect():
    # two operators that do not respect their structures, in groups (4, 4)
    # and (2, 2); the (2, 2) group is built first, the (4, 4) one comes first
    # in the corpus
    good = [complex_op(seed=s, dim=2) for s in range(3)]
    bad4, bad2 = complex_op(seed=7, dim=4), complex_op(seed=8, dim=2)
    bad4 = RespectingOperator(bad4.domain, bad4.codomain, bad4.matrix + 0.25, 0.0)
    bad2 = RespectingOperator(bad2.domain, bad2.codomain, bad2.matrix + 1.0, 0.0)
    corpus = [good[0], bad4, good[1], bad2, good[2]]
    with pytest.raises(RespectViolationError) as exc_info:
        audit_self_conjugacy(IdealOracle("complex", AllOperators()), corpus)
    first = respect_residual(bad4.matrix, bad4.domain.A, bad4.codomain.A)
    later = respect_residual(bad2.matrix, bad2.domain.A, bad2.codomain.A)
    assert abs(first - later) > 0.1
    assert exc_info.value.residual == pytest.approx(first, rel=1e-12)


def reference_audit(oracle, corpus):
    """The decisions of the audit, one operator at a time: on [T, A, B], on
    [T, -A, -B] and on the square [T (+) T, A (+) -A, B (+) -B] between the
    averaged-norm doubled spaces."""
    direct, conjugated, square = [], [], []
    for op in corpus:
        direct.append(reference_complex(oracle, op))
        conjugated.append(reference_complex(oracle, conjugate_operator(op)))
        square.append(reference_complex(oracle, RespectingOperator(
            split_structure(op.domain, mode="complexification"),
            split_structure(op.codomain, mode="complexification"),
            block_diag2(op.matrix), 0.0)))
    return direct, conjugated, square


def _indices(flags):
    return [{"index": i} for i, flag in enumerate(flags) if flag]


@pytest.mark.parametrize("seed", [0, 1])
def test_grouped_audit_and_roundtrip_match_one_at_a_time(seed):
    corpus = mixed_complex_corpus(seed)
    statuses = set()
    for oracle in _complex_oracles():
        direct, conjugated, square = reference_audit(oracle, corpus)
        conj = _indices(c != d for c, d in zip(conjugated, direct))
        fwd = _indices(d and not q for d, q in zip(direct, square))
        bwd = _indices(q and not d for d, q in zip(direct, square))
        bad = conj or fwd or bwd
        audit = audit_self_conjugacy(oracle, corpus).to_dict()
        assert audit["status"] == ("violated" if bad else "verified")
        assert audit["residuals"] == {"conjugation_mismatches": float(len(conj)),
                                      "square_forward_failures": float(len(fwd)),
                                      "square_backward_failures": float(len(bwd))}
        assert audit["witness"] == ({"conjugation": conj, "square_forward": fwd,
                                     "square_backward": bwd} if bad else None)
        statuses.add(audit["status"])

        unfolded = complexify_ideal(realify_ideal(oracle))
        back = [reference_complex(unfolded, op) for op in corpus]
        for given in (None, True, False):
            self_conjugate = not bad if given is None else given
            inclusion = _indices(b and not d for d, b in zip(direct, back))
            equality = [{"index": i, "direct": d, "unfolded": b}
                        for i, (d, b) in enumerate(zip(direct, back))
                        if d != b] if self_conjugate else []
            report = verify_theorem_complex(oracle, corpus,
                                            self_conjugate=given).to_dict()
            assert report["status"] == ("violated" if inclusion + equality
                                        else "verified")
            assert report["residuals"] == {
                "inclusion_violations": float(len(inclusion)),
                "equality_mismatches": float(len(equality))}
            assert report["witness"] == ({"inclusion": inclusion, "equality": equality}
                                         if inclusion + equality else None)
            assert report["notes"][0] == f"audited self-conjugate: {self_conjugate}"
    # the a-entry-sign predicate fails the audit, the thresholds pass it
    assert statuses == {"verified", "violated"}


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_complexified_real_matches_base_on_matrix():
    base = IdealOracle("real", NormThreshold("operator_norm", 1.5))
    lifted = complexify_ideal(base)
    op = complex_op(seed=1)
    direct = decide_real(base, [RealOperator(op.matrix, op.domain.space,
                                             op.codomain.space)])[0]
    assert decide_complex(lifted, [op])[0] == direct


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
        assert decide_real(dropped, [item])[0] == expected


def test_conjugate_ideal_flips_structure_sensitive_decision():
    oracle = IdealOracle("complex", MatrixPredicate(
        "a-entry-sign", PREDICATES[("a-entry-sign", "complex")]))
    conj = conjugate_ideal(oracle)
    found_flip = False
    for seed in range(8):
        op = complex_op(seed=seed, dim=2)
        if decide_complex(oracle, [op])[0] != decide_complex(conj, [op])[0]:
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
