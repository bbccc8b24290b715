import itertools
import math
import re
import time

import numpy as np
import pytest

from istruct import theory
from istruct.config import DEFAULT_TOL, Tolerances
from istruct.corpus import (random_complexification_isomorphism,
                            random_exact_structure)
from istruct.errors import (RespectViolationError, StructureValidationError,
                            WitnessError)
from istruct.ideals import (AllOperators, IdealOracle, NormThreshold,
                            RankThreshold, RealOperator)
from istruct.spaces import (NormedSpace, Polyhedral, SubspaceNorm, SumNorm,
                            _whitening_factors, block_diag2,
                            direct_sum, euclidean_gram, lp_space, norm_batch,
                            space_equal)
from istruct.morphisms import RespectingOperator, make_respecting
from istruct.structures import (UNDECIDED, Certificate, ComplexStructure,
                                _sampled_isometry_residual, certify,
                                natural_i_operator, natural_i_operator_matrix,
                                reevaluate_witness, search_i_operator,
                                validate_i_operator)
from istruct.theory import (REAL_CARTESIAN, ROUNDTRIP, _complex_cartesian_check,
                            _complex_cartesian_residuals, _conjugations,
                            _real_cartesian_residuals, _squares_check,
                            _squares_residuals, _witness_report, _witnesses,
                            build_complexification_witness,
                            conjugation_matrix, extract_conjugation,
                            split_structure, squares_isomorphism,
                            verify_complex_cartesian_identities,
                            verify_real_cartesian_identities,
                            verify_squares_isomorphism,
                            verify_theorem_complex, verify_theorem_real)

from helpers import (averaged_square, count_sampled_checks, input_key,
                     linalg_calls, random_respecting_operator)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# Complexification witnesses
# ---------------------------------------------------------------------------

def test_conjugation_matrix():
    C = conjugation_matrix(2)
    assert np.array_equal(C @ C, np.eye(4))
    assert np.array_equal(C @ np.array([1.0, 2, 3, 4]), [1, 2, -3, -4])


def test_extract_conjugation_roundtrip():
    rng = np.random.default_rng(0)
    s, iso = random_complexification_isomorphism(2, rng)
    T = extract_conjugation(iso)
    assert np.max(np.abs(T @ T - np.eye(4))) <= 1e-9
    assert np.max(np.abs(T @ s.A + s.A @ T)) <= 1e-9


def test_witness_on_rotation_plane():
    # with A the quarter turn and T the reflection, the fixed line is the
    # first axis and the forward map doubles coordinates with a swap
    s = validate_i_operator(lp_space(2, 2.0), J2)
    T = np.array([[1.0, 0.0], [0.0, -1.0]])
    wit = build_complexification_witness(s, T)
    assert wit.report.ok
    assert wit.Y_basis.shape == (2, 1)
    assert np.allclose(np.abs(wit.S.matrix), [[0.0, 2.0], [2.0, 0.0]])
    assert np.allclose(wit.S_inverse.matrix @ wit.S.matrix, np.eye(2),
                       atol=1e-12)
    assert wit.norm_bound["status"] == "verified"


def test_witness_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        s, iso = random_complexification_isomorphism(2, rng)
        T = extract_conjugation(iso)
        wit = build_complexification_witness(s, T)
        assert wit.report.ok
        dev = np.max(np.abs(wit.S_inverse.matrix @ wit.S.matrix - np.eye(4)))
        assert dev <= 1e-8
        assert wit.norm_bound["S"] <= wit.norm_bound["I_plus_T"] + 1e-6


def test_witness_rejects_bad_hypotheses():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    with pytest.raises(WitnessError, match="anticommuting involution"):
        build_complexification_witness(s, np.eye(2) * 2.0)
    with pytest.raises(WitnessError, match="anticommuting involution"):
        # -I is an involution but commutes with A instead of anticommuting
        build_complexification_witness(s, -np.eye(2))
    with pytest.raises(WitnessError, match="2 x 2"):
        build_complexification_witness(s, np.eye(3))


def test_witness_reports_a_seed_only_when_a_norm_is_sampled():
    T = conjugation_matrix(2)
    exact = build_complexification_witness(natural_i_operator(lp_space(2, 2.0)), T)
    assert exact.norm_bound["exact"] and exact.report.seeds == {}
    sampled = build_complexification_witness(natural_i_operator(lp_space(2, 1.0)), T)
    assert not sampled.norm_bound["exact"] and sampled.report.seeds == {"seed": 0}
    # two sampled lower bounds neither prove nor refute ||S|| <= ||I + T||
    assert sampled.report.status == "inconclusive"


def test_witness_on_a_polytope_restricts_the_norm_to_y():
    # the l1 ball of R^4 as a polytope: its isometry group is finite, so N is
    # no i-operator of it, and the witness is built for the unvalidated pair
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=4)))
    space = NormedSpace(4, Polyhedral(signs))
    N = natural_i_operator_matrix(2)
    wit = build_complexification_witness(ComplexStructure(space, N, certify(space, N)),
                                         conjugation_matrix(2))
    y = wit.S.codomain.space.norm_desc.base
    assert isinstance(y.norm_desc, SubspaceNorm) and y.norm_desc.ambient is space
    assert wit.report.status == "inconclusive"  # the norms are sampled


@pytest.mark.parametrize("s_norm, exact, round_dev, bound, status", [
    (1.0, True, 0.0, "verified", "verified"),
    (3.0, True, 0.0, "violated", "violated"),
    (1.0, True, 1e-6, "verified", "violated"),
    (1.0, False, 0.0, "inconclusive", "inconclusive"),
    (3.0, False, 0.0, "inconclusive", "inconclusive"),
    (1.0, False, 1e-6, "inconclusive", "violated"),
    (1.0, True, np.nan, "verified", "inconclusive"),
    (3.0, True, np.nan, "violated", "violated"),
    (2.000001, True, 0.0, "violated", "violated"),
])
def test_witness_status_follows_exactness_and_round_trip(s_norm, exact, round_dev,
                                                          bound, status):
    # ||I + T|| = 2; sampled norms are lower bounds that decide nothing.  The
    # bound holds iff the row's norm_excess does, 2.000001 - 2 being 1e-6 +
    # 1.4e-16 in floats: above NORM_SLACK, although 2.000001 <= 2 + 1e-6
    row = np.array([0.0, 0.0, round_dev, max(0.0, s_norm - 2.0)])
    norm_bound, report = _witness_report(row, np.array([s_norm, 2.0]), exact)
    assert (norm_bound["status"], report.status) == (bound, status)


def test_a_nan_norm_of_s_shows_in_the_norm_excess(monkeypatch):
    # the excess is read off the kernel's row, where max(0.0, nan) was 0.0:
    # the report and the row both carry the NaN, and the bound fails
    singular_values = theory._singular_values
    calls = []

    def planted(T, w_dom, w_cod):
        calls.append(T)
        sv = singular_values(T, w_dom, w_cod)
        return sv * math.nan if len(calls) == 1 else sv  # ||S|| comes first

    monkeypatch.setattr(theory, "_singular_values", planted)
    wit = build_complexification_witness(natural_i_operator(lp_space(2, 2.0)),
                                         conjugation_matrix(2))
    assert math.isnan(wit.norm_bound["S"]) and wit.norm_bound["I_plus_T"] == 2.0
    assert math.isnan(wit.report.residuals["norm_excess"])
    assert wit.report.status == "violated"
    assert wit.report.witness == {"norm_bound": wit.norm_bound}


def _isomorphism_stack(half_dim, count, seed):
    rng = np.random.default_rng(seed)
    return [random_complexification_isomorphism(half_dim, rng) for _ in range(count)]


@pytest.mark.parametrize("half_dim", [1, 2, 3])
def test_stacked_witnesses_are_the_single_calls(half_dim):
    pairs = _isomorphism_stack(half_dim, 5, half_dim)
    ss, isos = zip(*pairs)
    As = np.stack([s.A for s in ss])
    Ts, errors = _conjugations(np.stack([iso.matrix for iso in isos]), As,
                               isos[0].codomain.A, tol=1e-9)
    assert errors == [None] * 5
    grams = np.stack([s.space.norm_desc.gram for s in ss])
    w = _witnesses(As, Ts, grams, _whitening_factors(grams), None, tol=DEFAULT_TOL)
    assert w.errors == [None] * 5
    for j, (s, iso) in enumerate(pairs):
        T = extract_conjugation(iso)
        assert np.array_equal(T, Ts[j])
        one = build_complexification_witness(s, T)
        assert one.report.status == "verified"
        assert one.report.residuals == dict(zip(ROUNDTRIP.names, w.residuals[j].tolist()))
        assert [one.norm_bound["S"], one.norm_bound["I_plus_T"]] == w.norms[j].tolist()
        assert one.norm_bound["exact"] is w.exact[j] is True
        assert np.array_equal(one.S.matrix, w.S[j])
        assert np.array_equal(one.S_inverse.matrix, w.S_inverse[j])
        assert np.array_equal(one.Y_basis, w.B[j])


@pytest.mark.parametrize("half_dim", [1, 2, 3])
def test_a_witness_factorises_only_the_gram_of_y_c(half_dim):
    # X's factors are the space's cached _whitening; only Y_C's Gram,
    # diag(G_Y, G_Y) / 2, is factorised for the witness
    s, iso = random_complexification_isomorphism(half_dim, np.random.default_rng(half_dim))
    T = extract_conjugation(iso)
    assert s.space._whitening is not None
    with linalg_calls() as log:
        w = build_complexification_witness(s, T)
    y_gram = w.S.codomain.space.norm_desc.base.norm_desc.gram
    assert log["cholesky"] == [input_key(block_diag2(y_gram[None] / 2.0))]
    assert len(log["inv"]) == 1  # of Y_C's factor
    assert w.report.ok and w.norm_bound["exact"]


def test_extract_conjugation_rejects_a_singular_map():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    iso = make_respecting(s, natural_i_operator(lp_space(1, 2.0)), np.zeros((2, 2)))
    with pytest.raises(WitnessError, match="singular"):
        extract_conjugation(iso)


def _odd_structure():
    # no structure exists in odd dimension; the zero matrix stands in for one
    space, zero = lp_space(3, 2.0), np.zeros((3, 3))
    return ComplexStructure(space, zero, certify(space, zero))


@pytest.mark.parametrize("make, match", [
    (lambda: RespectingOperator(random_exact_structure(2, np.random.default_rng(0)),
                                random_exact_structure(4, np.random.default_rng(1)),
                                np.ones((4, 2)), 0.0), "non-square"),
    (lambda: RespectingOperator(_odd_structure(), _odd_structure(), np.eye(3), 0.0),
     "codomain dimension must be even"),
], ids=["non-square", "odd-codomain"])
def test_extract_conjugation_of_a_map_without_one_is_a_typed_error(make, match):
    with pytest.raises(WitnessError, match=match):
        extract_conjugation(make())


def test_stacked_conjugations_give_each_item_its_first_error():
    (s, good), (_, other) = _isomorphism_stack(2, 2, 9)
    ny = good.codomain
    # other's S does not respect s's A, so its inverse fails the respect check
    isos = [good, RespectingOperator(s, ny, np.zeros((4, 4)), 0.0),
            RespectingOperator(s, ny, other.matrix, 0.0)]
    _, errors = _conjugations(np.stack([iso.matrix for iso in isos]), s.A, ny.A,
                              tol=1e-9)
    assert errors[0] is None
    assert "singular" in str(errors[1])
    assert isinstance(errors[2], RespectViolationError)
    for iso, error in zip(isos[1:], errors[1:]):
        with pytest.raises(type(error), match=re.escape(str(error))):
            extract_conjugation(iso)


# ---------------------------------------------------------------------------
# Square spaces
# ---------------------------------------------------------------------------

def test_split_structure_shape():
    s = random_exact_structure(4, np.random.default_rng(2))
    sp = split_structure(s)
    assert sp.space.dim == 8
    assert np.array_equal(sp.A[:4, :4], s.A)
    assert np.array_equal(sp.A[4:, 4:], -s.A)


def test_split_structure_is_the_sum_square():
    # the square of [X, A] is on the l1-sum X (+) X, never on X_C
    s = random_exact_structure(2, np.random.default_rng(3))
    sp = split_structure(s)
    assert isinstance(sp.space.norm_desc, SumNorm)
    assert space_equal(sp.space, direct_sum(s.space, s.space))
    assert averaged_square(s).space is natural_i_operator(s.space).space


def _sum_of_planes():
    """[l2^2 (+)_1 l2^2, J (+) J]: an i-operator whose space is not
    Euclidean-like, certified exactly, one plane at a time."""
    plane = lp_space(2, 2.0)
    JJ = np.kron(np.eye(2), natural_i_operator_matrix(1))
    return validate_i_operator(direct_sum(plane, plane), JJ)


def _sampled_sum_of_planes():
    """_sum_of_planes with the certificate sampling gives it, witness and
    all: a sampled certificate for the split structure to inherit."""
    s = _sum_of_planes()
    iso, witness, used = _sampled_isometry_residual(s.space, s.A, 64, 16)
    return ComplexStructure(s.space, s.A, Certificate(0.0, iso, used, False, witness))


# a sampled residual also sees the rounding of the norms it compares, a few
# units in the last place, which a residual proved 0 does not contain
ROUNDING = 4 * np.finfo(float).eps


@pytest.mark.parametrize("make, square", [
    (lambda: random_exact_structure(4, np.random.default_rng(6)), split_structure),
    (lambda: random_exact_structure(4, np.random.default_rng(6)), averaged_square),
    (_sum_of_planes, split_structure),
    (_sampled_sum_of_planes, split_structure),
], ids=["l2-sum", "l2-complexification", "planes-sum", "sampled-planes-sum"])
def test_split_structure_inherits_a_certificate_certify_confirms(make, square):
    s = make()
    sp = square(s)
    inherited = sp.certificate
    assert inherited.algebraic_residual == s.certificate.algebraic_residual
    assert inherited.isometry_residual == s.certificate.isometry_residual
    c = certify(sp.space, sp.A)
    assert c.algebraic_residual <= inherited.algebraic_residual
    slack = 0.0 if c.exact else ROUNDING
    assert c.isometry_residual <= inherited.isometry_residual + slack
    if inherited.witness is not None:
        x, _, _ = inherited.witness
        assert np.array_equal(x[len(x) // 2:], np.zeros(len(x) // 2))
        redo = reevaluate_witness(sp.space, sp.A, inherited.witness)
        assert redo == pytest.approx(inherited.isometry_residual, abs=1e-15)


def test_averaged_square_off_euclidean_is_a_typed_error(monkeypatch):
    # l2^2 (+)_1 l2^2 has no Gram and is no plane: the theorem refuses the
    # averaged square of J (+) J before any check is run
    s = _sum_of_planes()
    sampled = count_sampled_checks(monkeypatch)
    with pytest.raises(StructureValidationError) as exc_info:
        averaged_square(s)
    assert exc_info.value.certificate is None
    assert "iff X's norm is an inner product's" in str(exc_info.value)
    assert sampled == []


def test_averaged_square_of_an_unrecognized_inner_product_passes_by_the_plane_rule():
    # the rows (cos j pi/3, sin j pi/3) of l4^3 span a plane with the norm
    # (9/8)^(1/4) |x|, since sum_j cos^4(t - j pi/3) = 9/8; no closed form
    # recognizes it, but a plane with an i-operator is Euclidean, so A (+) -A
    # on its averaged square inherits the sampled certificate of [X, J]
    j = np.arange(3)
    basis = np.stack([np.cos(j * np.pi / 3), np.sin(j * np.pi / 3)], axis=1)
    X = NormedSpace(2, SubspaceNorm(lp_space(3, 4.0), basis))
    x = np.random.default_rng(0).standard_normal((20, 2))
    assert norm_batch(X, x) == pytest.approx(
        (9 / 8) ** 0.25 * np.linalg.norm(x, axis=1), rel=1e-14)
    assert euclidean_gram(X) is None
    assert search_i_operator(X).tag == UNDECIDED
    c = averaged_square(validate_i_operator(X, J2)).certificate
    assert not c.exact and c.samples_used > 0
    assert c.algebraic_residual == 0.0 and c.isometry_residual < 1e-14


def test_averaged_square_of_a_plane_rejects_an_invalid_operator(monkeypatch):
    # J is no i-operator on l1^2; the averaged square of [l1^2, J] inherits
    # certify's sampled certificate, with its witness lifted to (x, 0)
    plane = lp_space(2, 1.0)
    c = certify(plane, J2)
    assert c.isometry_residual > 1e-2
    sampled = count_sampled_checks(monkeypatch)
    with pytest.raises(StructureValidationError) as exc_info:
        averaged_square(ComplexStructure(plane, J2, c))
    inherited = exc_info.value.certificate
    assert inherited.isometry_residual == c.isometry_residual
    assert np.array_equal(inherited.witness[0], np.concatenate([c.witness[0], [0.0, 0.0]]))
    assert sampled == []


def test_complex_theorem_audit_on_a_non_euclidean_base_fails_fast(monkeypatch):
    # cplx(l1^2) has no Gram and dimension 4, so the audit's averaged squares
    # are refused by the theorem, without nested quadrature
    s = natural_i_operator(lp_space(2, 1.0))
    rng = np.random.default_rng(5)
    corpus = [random_respecting_operator(s, s, rng) for _ in range(2)]
    sampled = count_sampled_checks(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(StructureValidationError, match="inner product"):
        verify_theorem_complex(IdealOracle("complex", AllOperators()), corpus)
    assert time.perf_counter() - start < 1.0
    assert sampled == []


def test_squares_isomorphism_exact():
    rng = np.random.default_rng(4)
    for dim in (2, 4, 6):
        s = random_exact_structure(dim, rng)
        rep = verify_squares_isomorphism(s)
        assert rep.ok
        assert rep.residuals["respect"] == 0.0
        assert rep.residuals["inverse_composition"] <= 1e-12


def _row_of(report, check) -> list:
    """A one-item report's residuals in the order of check's columns; its
    claim, tolerances and status as check reads them off that row."""
    row = [report.residuals[name] for name in check.names]
    assert report.claim == check.claim and report.tolerances == check.tolerances
    assert report.ok == all(v <= b for v, b in zip(row, check.bounds))
    return row


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(tol_alg=-1.0)])
def test_stacked_squares_reports_are_the_single_calls(tol):
    rng = np.random.default_rng(12)
    structures = [random_exact_structure(4, rng) for _ in range(6)]
    R, errors = _squares_residuals(
        structures[0].space, np.stack([s.A for s in structures]),
        [s.certificate for s in structures], tol=tol)
    assert R.shape == (6, 2)
    for s, row, error in zip(structures, R.tolist(), errors):
        if error is None:
            report = verify_squares_isomorphism(s, tol=tol)
            assert _row_of(report, _squares_check(tol)) == row
            assert report.ok or report.witness == {"A": s.A.tolist()}
        else:
            with pytest.raises(type(error), match=re.escape(str(error))):
                verify_squares_isomorphism(s, tol=tol)


def test_squares_isomorphism_is_invertible():
    s = random_exact_structure(4, np.random.default_rng(5))
    op = squares_isomorphism(s)
    assert np.linalg.matrix_rank(op.matrix) == 8


# ---------------------------------------------------------------------------
# Cartesian identities
# ---------------------------------------------------------------------------

def test_real_cartesian_identities_exact():
    rng = np.random.default_rng(6)
    for _ in range(20):
        T = rng.standard_normal((int(rng.integers(1, 6)),
                                 int(rng.integers(1, 6))))
        rep = verify_real_cartesian_identities(T)
        assert rep.ok
        assert max(rep.residuals.values()) == 0.0


def test_stacked_cartesian_reports_are_the_single_calls():
    rng = np.random.default_rng(13)
    Ts = rng.standard_normal((7, 3, 5))
    R = _real_cartesian_residuals(Ts)
    assert R.shape == (7, 2)
    for T, row in zip(Ts, R.tolist()):
        assert _row_of(verify_real_cartesian_identities(T), REAL_CARTESIAN) == row
    ops = [random_respecting_operator(random_exact_structure(4, rng),
                                      random_exact_structure(2, rng), rng)
           for _ in range(5)]
    stacks = [np.stack(x) for x in zip(*((op.matrix, op.domain.A, op.codomain.A)
                                         for op in ops))]
    for corrupt in (False, True):
        for tol in (DEFAULT_TOL, Tolerances(tol_alg=5e-16)):
            check = _complex_cartesian_check(tol, corrupt)
            R = _complex_cartesian_residuals(*stacks, corrupt)
            assert R.shape == (5, 14 + corrupt)
            for op, row in zip(ops, R.tolist()):
                report = verify_complex_cartesian_identities(
                    op, tol=tol, corrupt_annotation=corrupt)
                assert _row_of(report, check) == row
                assert report.ok or report.witness == {"failed": {
                    k: v for k, v, b in zip(check.names, row, check.bounds) if not v <= b}}


def test_complex_cartesian_identities():
    rng = np.random.default_rng(7)
    dom = random_exact_structure(4, rng)
    cod = random_exact_structure(2, rng)
    op = random_respecting_operator(dom, cod, rng)
    rep = verify_complex_cartesian_identities(op)
    assert rep.ok
    assert max(rep.residuals.values()) <= 1e-12


def test_complex_cartesian_corrupt_annotation_detected():
    rng = np.random.default_rng(8)
    dom = random_exact_structure(2, rng)
    cod = random_exact_structure(2, rng)
    op = random_respecting_operator(dom, cod, rng)
    rep = verify_complex_cartesian_identities(op, corrupt_annotation=True)
    assert rep.status == "violated"
    assert "J2_X(A,split)" in rep.witness["failed"]


# ---------------------------------------------------------------------------
# Oracle-transform roundtrips
# ---------------------------------------------------------------------------

def real_corpus(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        out.append(RealOperator(rng.standard_normal((m, n)),
                                lp_space(n, 2.0), lp_space(m, 2.0)))
    return out


def complex_corpus(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dom = random_exact_structure(int(rng.choice([2, 4])), rng)
        cod = random_exact_structure(int(rng.choice([2, 4])), rng)
        out.append(random_respecting_operator(dom, cod, rng))
    return out


def test_theorem_real_norm_threshold():
    oracle = IdealOracle("real", NormThreshold("operator_norm", 2.0))
    rep = verify_theorem_real(oracle, real_corpus(20, 9))
    assert rep.ok


def test_theorem_real_detects_doubling_sensitive_oracle():
    # rank <= 1 is not stable under doubling: rank(T (+) T) = 2 rank(T)
    oracle = IdealOracle("real", RankThreshold(1))
    corpus = [RealOperator(np.array([[1.0]]), lp_space(1, 2.0),
                           lp_space(1, 2.0))]
    rep = verify_theorem_real(oracle, corpus)
    assert rep.status == "violated"
    assert rep.witness[0]["direct"] is True
    assert rep.witness[0]["unfolded"] is False


def test_theorem_complex_norm_threshold():
    oracle = IdealOracle("complex", NormThreshold("operator_norm", 1.5))
    rep = verify_theorem_complex(oracle, complex_corpus(10, 10))
    assert rep.ok
    assert any("self-conjugate: True" in n for n in rep.notes)


def test_theorem_complex_structure_sensitive_oracle_violated():
    from istruct.ideals import MatrixPredicate, PREDICATES
    oracle = IdealOracle("complex", MatrixPredicate(
        "a-entry-sign", PREDICATES[("a-entry-sign", "complex")]))
    corpus = complex_corpus(10, 11)
    rep = verify_theorem_complex(oracle, corpus)
    # over a corpus of random signed pairings both signs of the probed entry
    # occur, so the unfolded oracle disagrees with the direct one
    assert rep.status == "violated"


# a NaN residual fails every tolerance test, wherever it stands: Python's
# max(0.0, nan) is 0.0, and nan > tol is False
_NAN_PAIRS = [(math.nan, 0.0), (0.0, math.nan)]


def _planted_involution_residuals(monkeypatch, a, b):
    monkeypatch.setattr(theory, "_involution_residuals",
                        lambda Ts, As: (np.full(len(Ts), a), np.full(len(Ts), b)))


@pytest.mark.parametrize("a, b", _NAN_PAIRS)
def test_a_nan_involution_residual_fails_the_conjugation(monkeypatch, a, b):
    _, iso = random_complexification_isomorphism(1, np.random.default_rng(0))
    _planted_involution_residuals(monkeypatch, a, b)
    with pytest.raises(WitnessError, match="involution/anticommutation"):
        extract_conjugation(iso)


@pytest.mark.parametrize("a, b", _NAN_PAIRS)
def test_a_nan_involution_residual_fails_the_witness(monkeypatch, a, b):
    s = validate_i_operator(lp_space(2, 2.0), J2)
    _planted_involution_residuals(monkeypatch, a, b)
    with pytest.raises(WitnessError, match="anticommuting involution"):
        build_complexification_witness(s, np.diag([1.0, -1.0]))


def _planted_deviations(monkeypatch, d1, d2):
    deviations = theory._cartesian_deviations

    def planted(Ts, *maps):
        TT, _, _ = deviations(Ts, *maps)
        return TT, np.full(len(Ts), d1), np.full(len(Ts), d2)
    monkeypatch.setattr(theory, "_cartesian_deviations", planted)


def test_a_nan_deviation_fails_the_real_cartesian_identities(monkeypatch):
    # max(nan, 0.0) is NaN, which fails "== 0.0"; max(0.0, nan) was 0.0
    _planted_deviations(monkeypatch, 0.0, math.nan)
    assert verify_real_cartesian_identities(np.ones((2, 3))).status == "violated"


@pytest.mark.parametrize("d1, d2", _NAN_PAIRS)
def test_a_nan_deviation_fails_the_complex_cartesian_identities(monkeypatch, d1, d2):
    s = validate_i_operator(lp_space(2, 2.0), J2)
    op = random_respecting_operator(s, s, np.random.default_rng(3))
    _planted_deviations(monkeypatch, d1, d2)
    rep = verify_complex_cartesian_identities(op)
    assert rep.status == "violated"
    assert list(rep.witness["failed"]) == (["restriction"] if math.isnan(d1)
                                           else ["reassembly"])


def test_a_nan_respect_residual_fails_the_complex_cartesian_identities(monkeypatch):
    s = validate_i_operator(lp_space(2, 2.0), J2)
    op = random_respecting_operator(s, s, np.random.default_rng(3))
    kernel = theory._complex_cartesian_residuals

    def planted(*args):
        R = kernel(*args)
        R[:, :11] = math.nan  # every respect residual
        return R

    monkeypatch.setattr(theory, "_complex_cartesian_residuals", planted)
    rep = verify_complex_cartesian_identities(op)
    assert rep.status == "violated"
    assert len(rep.witness["failed"]) == 11
