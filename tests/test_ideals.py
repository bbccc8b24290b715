import collections
import math

import numpy as np
import pytest

from istruct.config import DEFAULT_TOL
from istruct.corpus import random_euclidean_space, random_exact_structure
from istruct.errors import (DescriptorError, DimensionMismatchError,
                            RespectViolationError, StructureValidationError)
from istruct.ideals import (DECISION_NOTE, AllOperators, ComplexifiedReal, ConjugateOf,
                            IdealOracle, MatrixPredicate, NoOperators,
                            NormThreshold, RankThreshold, RealFormOf,
                            RealOperator, PREDICATES, THRESHOLD_ATOL,
                            _grouped_corpus, _members, _squares,
                            audit_self_conjugacy, complexify_ideal,
                            conjugate_ideal, decide_complex, decide_real,
                            ideal_norm, ideal_norms, oracle_from_dict,
                            realify_ideal)
from istruct.morphisms import (RespectingOperator, block_diag2,
                               complexify_operator, conjugate_operator,
                               make_respecting, matrix_norm_between)
from istruct.report import bounded
from istruct.spaces import (EuclideanQuadratic, NormedSpace, direct_sum, lp_space,
                            space_key)
from istruct.structures import natural_i_operator_matrix, validate_i_operator
from istruct.theory import verify_theorem_complex

from helpers import averaged_square, count_sampled_checks, random_respecting_operator

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
    assert ideal_norm("operator_norm", T, L2_2, L2_2) == pytest.approx(4.0)
    assert ideal_norm("hilbert_schmidt", T, L2_2, L2_2) == pytest.approx(5.0)
    assert ideal_norm("trace_norm", T, L2_2, L2_2) == pytest.approx(7.0)


def test_ideal_norm_respects_weighted_geometry():
    # T = identity, but the codomain doubles lengths
    from istruct.spaces import NormedSpace, WeightedLp
    cod = NormedSpace(2, WeightedLp(2.0, np.array([4.0, 4.0])))
    v = ideal_norm("operator_norm", np.eye(2), L2_2, cod)
    assert v == pytest.approx(2.0)


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

# each bundled predicate written out for one operator
ONE_OPERATOR = {"nonzero": lambda T, *rest: bool(np.any(T != 0.0)),
                "a-entry-sign": lambda T, A, B, dom, cod: bool(A[0, A.shape[1] - 1] <= 0.0)}


def reference_real(oracle, item):
    """The decision on one RealOperator, written out per descriptor."""
    d = oracle.descriptor
    if isinstance(d, AllOperators):
        return True
    if isinstance(d, NoOperators):
        return False
    if isinstance(d, NormThreshold):
        value = ideal_norm(d.functional, item.matrix, item.domain, item.codomain)
        return value <= d.bound + THRESHOLD_ATOL
    if isinstance(d, RankThreshold):
        return int(np.linalg.matrix_rank(item.matrix)) <= d.r
    if isinstance(d, MatrixPredicate):
        return ONE_OPERATOR[d.label](item.matrix, item.domain, item.codomain)
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
        return ONE_OPERATOR[d.label](op.matrix, op.domain.A, op.codomain.A,
                                     op.domain.space, op.codomain.space)
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
        assert stacked.tolist() == [ideal_norm(functional, T, dom, cod) for T in Ts]


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


_S2, _S4 = (random_exact_structure(dim, np.random.default_rng(dim)) for dim in (2, 4))


@pytest.mark.parametrize("call", [
    lambda T: make_respecting(_S2, _S4, T),
    lambda T: complexify_operator(T, _S2.space, _S4.space),
    lambda T: matrix_norm_between(T, _S2.space, _S4.space),
    lambda T: ideal_norm("operator_norm", T, _S2.space, _S4.space),
    lambda T: decide_real(IdealOracle("real", AllOperators()),
                          [RealOperator(T, _S2.space, _S4.space)]),
], ids=["make_respecting", "complexify_operator", "matrix_norm_between",
        "ideal_norm", "decide_real"])
def test_every_operator_shape_check_gives_the_same_error(call):
    # a 2 x 2 T offered as a map from a 2-dimensional space to a 4-dimensional one
    with pytest.raises(DimensionMismatchError) as exc_info:
        call(np.eye(2))
    assert str(exc_info.value) == "T must be 4 x 2, got (2, 2)"


def _recording_predicate(kind, calls, label="nonzero"):
    """The bundled predicate, recording the size of each stack it decides."""
    fn = PREDICATES[(label, kind)]

    def recorded(Ts, *rest):
        calls.append(len(Ts))
        return fn(Ts, *rest)

    return IdealOracle(kind, MatrixPredicate(label, recorded))


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


def _group_count(corpus, spaces):
    return len({(space_key(d), space_key(c)) for d, c in map(spaces, corpus)})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_predicates_match_a_per_operator_reference(seed):
    real = mixed_real_corpus(seed)
    # a T of negative zeros, and one whose negative entries are made -0.0
    for i, T in ((1, -0.0 * np.ones_like(real[1].matrix)),
                 (2, np.where(real[2].matrix < 0.0, -0.0, real[2].matrix))):
        real[i] = RealOperator(T, real[i].domain, real[i].codomain)
    assert any(np.signbit(op.matrix).any() and not op.matrix.any() for op in real)
    groups = _group_count(real, lambda op: (op.domain, op.codomain))
    calls = []
    oracle = _recording_predicate("real", calls)
    assert decide_real(oracle, real).tolist() == [
        ONE_OPERATOR["nonzero"](op.matrix) for op in real]
    assert len(calls) == groups and sum(calls) == len(real)
    # on the doubled operators, one call per group as well
    calls.clear()
    assert (decide_real(realify_ideal(complexify_ideal(oracle)), real).tolist()
            == decide_real(oracle, real).tolist())
    assert len(calls) == 2 * groups

    cplx = mixed_complex_corpus(seed)
    # zero entries of A, which conjugation turns into -0.0
    assert any(op.domain.A[0, -1] == 0.0 for op in cplx)
    groups = _group_count(cplx, lambda op: (op.domain.space, op.codomain.space))
    for label in ("nonzero", "a-entry-sign"):
        calls = []
        oracle = _recording_predicate("complex", calls, label)
        for sign, decide in ((1.0, oracle), (-1.0, conjugate_ideal(oracle))):
            assert decide_complex(decide, cplx).tolist() == [
                ONE_OPERATOR[label](op.matrix, sign * op.domain.A, sign * op.codomain.A,
                                    op.domain.space, op.codomain.space) for op in cplx]
        assert len(calls) == 2 * groups and sum(calls) == 2 * len(cplx)


@pytest.mark.parametrize("result, got", [
    (lambda Ts: bool(np.any(Ts != 0.0)), "bool of shape ()"),  # a per-operator predicate
    (lambda Ts: np.ones(len(Ts)), "float64 of shape (2,)"),
    (lambda Ts: np.ones(len(Ts), dtype=np.int64), "int64 of shape (2,)"),
    (lambda Ts: np.ones(len(Ts) + 1, dtype=bool), "bool of shape (3,)"),
    (lambda Ts: np.ones((len(Ts), 1), dtype=bool), "bool of shape (2, 1)"),
    (lambda Ts: None, "object of shape ()"),
], ids=["scalar", "floats", "ints", "too-many", "column", "none"])
def test_predicate_with_a_bad_result_is_a_typed_error(result, got):
    message = f"predicate 'bad' must return 2 booleans for 2 operators, got {got}"
    real = IdealOracle("real", MatrixPredicate("bad", lambda Ts, dom, cod: result(Ts)))
    cplx = IdealOracle("complex", MatrixPredicate(
        "bad", lambda Ts, As, Bs, dom, cod: result(Ts)))
    real_corpus = [real_op(np.eye(2)), real_op(np.zeros((2, 2)))]
    cplx_corpus = [complex_op(seed=s) for s in range(2)]
    for run in (lambda: decide_real(real, real_corpus),
                lambda: decide_complex(complexify_ideal(real), cplx_corpus),
                lambda: decide_complex(cplx, cplx_corpus),
                lambda: decide_real(realify_ideal(cplx), real_corpus),
                lambda: audit_self_conjugacy(cplx, cplx_corpus)):
        with pytest.raises(DescriptorError) as exc_info:
            run()
        assert str(exc_info.value) == message


def test_predicate_may_return_a_list_of_booleans():
    oracle = IdealOracle("real", MatrixPredicate(
        "listed", lambda Ts, dom, cod: [bool(T[0, 0] > 0.0) for T in Ts]))
    corpus = [real_op([[1.0]]), real_op([[-1.0]]), real_op([[2.0]])]
    assert decide_real(oracle, corpus).tolist() == [True, False, True]


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
    first, later = (np.max(np.abs(op.matrix @ op.domain.A - op.codomain.A @ op.matrix))
                    for op in (bad4, bad2))
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
            averaged_square(op.domain), averaged_square(op.codomain),
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


def four_decisions_reports(oracle, corpus, self_conjugate=None):
    """The audit's and the theorem's reports, each decision made by _members
    on its own: the direct, conjugate, squares and unfolded decisions."""
    corpus = _grouped_corpus(corpus, "complex")
    direct = _members(oracle, corpus.groups)
    conjugated = _members(conjugate_ideal(oracle), corpus.groups)
    square = _members(oracle, _squares(corpus, tol=DEFAULT_TOL))
    back = _members(complexify_ideal(realify_ideal(oracle)), corpus.groups)
    conj = _indices(conjugated != direct)
    fwd, bwd = _indices(direct & ~square), _indices(square & ~direct)
    audit = bounded(
        "self-conjugacy-audit", not (conj or fwd or bwd),
        {"conjugation_mismatches": float(len(conj)),
         "square_forward_failures": float(len(fwd)),
         "square_backward_failures": float(len(bwd))},
        witness={"conjugation": conj, "square_forward": fwd, "square_backward": bwd},
        notes=[DECISION_NOTE,
               "no violation on a finite corpus is not a proof of self-conjugacy"])
    if self_conjugate is None:
        self_conjugate = audit.ok
    inclusion = _indices(back & ~direct)
    equality = [{"index": i, "direct": bool(d), "unfolded": bool(b)}
                for i, (d, b) in enumerate(zip(direct, back)) if d != b] * self_conjugate
    theorem = bounded(
        "complex-ideal-roundtrip", not (inclusion or equality),
        {"inclusion_violations": float(len(inclusion)),
         "equality_mismatches": float(len(equality))},
        witness={"inclusion": inclusion, "equality": equality},
        notes=[f"audited self-conjugate: {self_conjugate}", DECISION_NOTE])
    return audit.to_dict(), theorem.to_dict()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_decisions_give_the_reports_of_all_four(seed):
    # an oracle that reads no structure takes its direct decisions as its
    # conjugate ones and the squares' as its unfolded ones; a predicate makes
    # all four decisions
    corpus = mixed_complex_corpus(seed)
    oracles = _complex_oracles() + [IdealOracle("complex", RankThreshold(r)) for r in (0, 64)]
    statuses = collections.Counter()
    for oracle in oracles:
        audit, theorem = four_decisions_reports(oracle, corpus)
        assert audit_self_conjugacy(oracle, corpus).to_dict() == audit
        assert verify_theorem_complex(oracle, corpus).to_dict() == theorem
        for given in (True, False):
            assert verify_theorem_complex(oracle, corpus, self_conjugate=given).to_dict() \
                == four_decisions_reports(oracle, corpus, given)[1]
        statuses.update([(audit["status"], theorem["status"])])
    # the rank threshold 2 and the sign predicate fail the audit, the others pass
    assert set(statuses) >= {("verified", "verified"), ("violated", "verified")}


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
                              item.codomain) <= 1.0 + 1e-9
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
    base = ideal_norm("hilbert_schmidt", T, item.domain, item.codomain)
    doubled = ideal_norm("hilbert_schmidt", block_diag2(T), dom2, cod2)
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


def test_audit_off_euclidean_is_a_typed_error(monkeypatch):
    # A (+) -A on the averaged square of l2^2 (+)_1 l2^2 is no i-operator, as
    # that norm is no inner product's: the theorem refuses it unchecked
    plane = lp_space(2, 2.0)
    s = validate_i_operator(direct_sum(plane, plane),
                            np.kron(np.eye(2), natural_i_operator_matrix(1)))
    rng = np.random.default_rng(9)
    corpus = [random_respecting_operator(s, s, rng)]
    oracle = IdealOracle("complex", AllOperators())
    sampled = count_sampled_checks(monkeypatch)
    with pytest.raises(StructureValidationError) as exc_info:
        audit_self_conjugacy(oracle, corpus)
    assert exc_info.value.certificate is None
    assert "iff X's norm is an inner product's" in str(exc_info.value)
    assert sampled == []


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_DESCRIPTOR_TYPES = {"norm_threshold": NormThreshold, "rank_threshold": RankThreshold,
                     "predicate": MatrixPredicate, "all": AllOperators, "none": NoOperators}


@pytest.mark.parametrize("obj", [
    {"kind": "real", "descriptor": {"type": "norm_threshold",
                                    "functional": "operator_norm", "bound": 2.0}},
    {"kind": "real", "descriptor": {"type": "rank_threshold", "r": 3}},
    {"kind": "complex", "descriptor": {"type": "predicate", "label": "nonzero"}},
    {"kind": "complex", "descriptor": {"type": "all"}},
    {"kind": "real", "descriptor": {"type": "none"}},
])
def test_oracle_serialization_roundtrip(obj):
    # the oracle carries the kind, the descriptor type and every field given
    oracle = oracle_from_dict(obj)
    cls = _DESCRIPTOR_TYPES[obj["descriptor"]["type"]]
    assert oracle.kind == obj["kind"] and type(oracle.descriptor) is cls
    fields = {k: v for k, v in obj["descriptor"].items() if k != "type"}
    assert {k: getattr(oracle.descriptor, k) for k in fields} == fields
    if cls is MatrixPredicate:
        assert oracle.descriptor.fn is PREDICATES[(fields["label"], obj["kind"])]


@pytest.mark.parametrize("make, bad", [
    (lambda v: NormThreshold("operator_norm", v), [math.nan, math.inf, -1.0, True, "1.0"]),
    (RankThreshold, [-1, 2.5, -2.7, True, "2"]),
], ids=["norm-threshold-bound", "rank-threshold-r"])
def test_threshold_parameters_are_range_checked(make, bad):
    for value in bad:
        with pytest.raises(DescriptorError, match="must be"):
            make(value)


def test_threshold_parameters_are_stored_as_float_and_int():
    assert type(NormThreshold("operator_norm", 2).bound) is float
    assert type(RankThreshold(np.int64(3)).r) is int


def test_oracle_of_unknown_kind_is_a_typed_error():
    with pytest.raises(DescriptorError, match="oracle kind must be real or complex"):
        IdealOracle("quaternionic", AllOperators())


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
