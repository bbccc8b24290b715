"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py`` (output passthrough is enabled in
pyproject.toml).
"""

import json
import math
import time

import numpy as np

from istruct.cli import bundled_scenario_path, load_scenario, run_suite
from istruct.corpus import (random_complexification_isomorphism,
                            random_euclidean_space, random_exact_structure)
from istruct.errors import StructureValidationError
from istruct.ideals import (IdealOracle, NormThreshold, RankThreshold,
                            RealOperator, audit_self_conjugacy, ideal_norm)
from istruct.morphisms import block_diag2
from istruct.pelczynski import (ChainDerivation, RULES, Step, check_derivation,
                                expr, reference_chain, search_chain)
from istruct.spaces import (NormedSpace, Polyhedral, WeightedLp,
                            complexification_norm, euclidean_gram, lp_space)
from istruct.structures import (natural_i_operator, reevaluate_witness,
                                validate_i_operator)
from istruct.theory import (build_complexification_witness,
                            extract_conjugation,
                            verify_complex_cartesian_identities,
                            verify_real_cartesian_identities,
                            verify_squares_isomorphism, verify_theorem_complex,
                            verify_theorem_real)

from helpers import random_respecting_operator


def report(number, label, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_euclidean_closed_form():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        space = random_euclidean_space(dim, rng,
                                       explicit_gram=bool(rng.integers(2)))
        g = euclidean_gram(space)
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)
        quad = complexification_norm(space, x, y)
        closed = math.sqrt((x @ g @ x + y @ g @ y) / 2.0)
        worst = max(worst, abs(quad - closed))
    elapsed = time.perf_counter() - start
    report(1, f"200 Euclidean quadrature-vs-closed-form checks "
              f"(worst {worst:.2e}, {elapsed:.2f}s)",
           worst <= 1e-10 and elapsed < 2.0)


def test_criterion_2_l1_spot_value():
    value = complexification_norm(lp_space(2, 1.0), [1.0, 0.0], [0.0, 1.0])
    target = math.sqrt(1.0 + 2.0 / math.pi)
    err = abs(value - target)
    report(2, f"l1 plane averaged norm of ((1,0),(0,1)) = {value:.8f} "
              f"(error {err:.2e})", err <= 1e-14)


def test_criterion_3_natural_structures_and_rejection():
    families = {
        "l2": lp_space(2, 2.0),
        "l1": lp_space(2, 1.0),
        "linf": lp_space(2, math.inf),
        "l3": lp_space(2, 3.0),
        "weighted-l1": NormedSpace(2, WeightedLp(1.0, np.array([1.0, 2.0]))),
        "polyhedral": NormedSpace(2, Polyhedral(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
    }
    ok = True
    detail = []
    for name, base in families.items():
        s = natural_i_operator(base)
        c = s.certificate
        good = c.algebraic_residual <= 1e-12 and c.isometry_residual <= 1e-8
        ok &= good
        detail.append(f"{name}:{c.isometry_residual:.1e}")

    # the quarter turn on the l1 plane must be rejected, reproducibly
    space = lp_space(2, 1.0)
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    rejected = False
    reproducible = False
    try:
        validate_i_operator(space, A)
    except StructureValidationError as exc:
        rejected = True
        cert = exc.certificate
        if cert is not None and cert.witness is not None:
            redo = reevaluate_witness(space, A, cert.witness)
            reproducible = abs(redo - cert.isometry_residual) <= 1e-9
    ok &= rejected and reproducible
    report(3, "natural i-operator per family (" + ", ".join(detail)
              + f"); l1 rotation rejected={rejected} "
              f"witness-reproducible={reproducible}", ok)


def test_criterion_4_complexification_witnesses():
    rng = np.random.default_rng(104)
    ok = True
    worst_res = worst_round = worst_excess = 0.0
    for _ in range(50):
        half = int(rng.integers(1, 4))
        s, iso = random_complexification_isomorphism(half, rng)
        T = extract_conjugation(iso)
        dim = s.space.dim
        res = max(np.max(np.abs(T @ T - np.eye(dim))),
                  np.max(np.abs(T @ s.A + s.A @ T)))
        wit = build_complexification_witness(s, T)
        round_dev = np.max(np.abs(wit.S_inverse.matrix @ wit.S.matrix
                                  - np.eye(dim)))
        excess = max(0.0, wit.norm_bound["S"] - wit.norm_bound["I_plus_T"])
        ok &= res <= 1e-8 and round_dev <= 1e-8 and excess <= 1e-6
        ok &= wit.report.ok
        worst_res = max(worst_res, res)
        worst_round = max(worst_round, round_dev)
        worst_excess = max(worst_excess, excess)
    report(4, f"50 conjugation/witness roundtrips (residual {worst_res:.1e}, "
              f"inverse {worst_round:.1e}, norm excess {worst_excess:.1e})", ok)


def test_criterion_5_square_space_isomorphisms():
    rng = np.random.default_rng(105)
    ok = True
    worst_inv = 0.0
    for _ in range(50):
        dim = int(rng.choice([2, 4, 6, 8]))
        s = random_exact_structure(dim, rng)
        rep = verify_squares_isomorphism(s)
        ok &= rep.ok and rep.residuals["respect"] == 0.0
        worst_inv = max(worst_inv, rep.residuals["inverse_composition"])
    ok &= worst_inv <= 1e-12
    report(5, f"50 square-space isomorphisms (respect exactly 0, "
              f"inverse deviation {worst_inv:.1e})", ok)


def test_criterion_6_cartesian_identities():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    for _ in range(200):
        dom = random_exact_structure(int(rng.choice([2, 4])), rng)
        cod = random_exact_structure(int(rng.choice([2, 4])), rng)
        op = random_respecting_operator(dom, cod, rng)
        real_rep = verify_real_cartesian_identities(op.matrix)
        ok &= real_rep.ok and max(real_rep.residuals.values()) == 0.0
        cplx_rep = verify_complex_cartesian_identities(op)
        ok &= cplx_rep.ok
        worst = max(worst, max(cplx_rep.residuals.values()))
    ok &= worst <= 1e-12
    report(6, f"200 factorization identity checks (deviation 0, "
              f"worst factor residual {worst:.1e})", ok)


def test_criterion_7_ideal_transform_roundtrips():
    rng = np.random.default_rng(107)
    real_corpus = []
    for _ in range(100):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        real_corpus.append(RealOperator(rng.standard_normal((m, n)),
                                        lp_space(n, 2.0), lp_space(m, 2.0)))
    oracles = [IdealOracle("real", NormThreshold("operator_norm", 2.0)),
               IdealOracle("real", NormThreshold("hilbert_schmidt", 100.0)),
               IdealOracle("real", RankThreshold(64))]
    ok = all(verify_theorem_real(o, real_corpus).ok for o in oracles)

    complex_corpus = []
    for _ in range(30):
        dom = random_exact_structure(int(rng.choice([2, 4])), rng)
        cod = random_exact_structure(int(rng.choice([2, 4])), rng)
        complex_corpus.append(random_respecting_operator(dom, cod, rng))
    c_oracle = IdealOracle("complex", NormThreshold("operator_norm", 1.5))
    audited = audit_self_conjugacy(c_oracle, complex_corpus).ok
    ok &= audited
    ok &= verify_theorem_complex(c_oracle, complex_corpus,
                                 self_conjugate=audited).ok

    worst = 0.0
    for _ in range(30):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        T = rng.standard_normal((m, n))
        dom, cod = lp_space(n, 2.0), lp_space(m, 2.0)
        base = ideal_norm("hilbert_schmidt", T, dom, cod)
        dom2 = natural_i_operator(dom).space
        cod2 = natural_i_operator(cod).space
        doubled = ideal_norm("hilbert_schmidt", block_diag2(T),
                             dom2, cod2)
        worst = max(worst, abs(doubled - math.sqrt(2.0) * base))
    ok &= worst <= 1e-10
    report(7, f"oracle roundtrips over 3 real families + audited complex "
              f"family; HS doubling deviation {worst:.1e}", ok)


def test_criterion_8_chain_checker_and_search():
    chain = reference_chain()
    ok = check_derivation(chain, start=expr("X+"), end=expr("X-")).ok

    rule_ids = sorted(RULES)
    for idx, step in enumerate(chain.steps):
        mutated = rule_ids[(rule_ids.index(step.rule) + 1) % len(rule_ids)]
        steps = list(chain.steps)
        steps[idx] = Step(step.expr, mutated, step.direction)
        rep = check_derivation(ChainDerivation(chain.start, steps))
        ok &= rep.status == "violated" and rep.witness["step"] == idx

    start = time.perf_counter()
    found = search_chain(expr("X+"), expr("X-"), 10)
    elapsed = time.perf_counter() - start
    ok &= found is not None and len(found.steps) <= 10 and elapsed < 1.0
    ok &= check_derivation(found, start=expr("X+"), end=expr("X-")).ok
    blocked = search_chain(expr("X+"), expr("X-"), 10,
                           rules=["R3", "R5", "R6", "R7"])
    ok &= blocked is None
    report(8, f"10-step chain verified, all 10 rule mutations rejected at "
              f"their index, search found {len(found.steps)} steps in "
              f"{elapsed:.3f}s, bridge-free search exhausted", ok)


def test_criterion_9_reproducible_reports():
    scenario = load_scenario(bundled_scenario_path())
    a = run_suite(scenario, "paper-all")
    b = run_suite(scenario, "paper-all")
    a.pop("timestamp"), b.pop("timestamp")
    identical = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    all_green = all(c["outcome"] == "verified" for c in a["claims"])
    report(9, f"two paper-all runs byte-identical modulo timestamp "
              f"({len(a['claims'])} claims, all expected outcomes)",
           identical and all_green)
