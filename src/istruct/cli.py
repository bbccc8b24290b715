"""Scenario-driven command line: load definitions, run named verification
suites, emit JSON reports.

Exit status: 0 all claims came out as expected, 1 at least one claim failed,
2 parse or resolution error.  ``CLAIMS`` maps each claim kind to its handler
and its parameter schema.  A suite builds every space and oracle of the
scenario and checks every claim against its schema before the first claim
runs, so bad input exits 2 whatever its place in the file.  Claims run in
declaration order, which is the order of the report.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import numbers
import sys
import zlib
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import corpus as corpus_gen
from .config import Tolerances
from .errors import (IstructError, ScenarioError, StructureValidationError,
                     first_errors)
from .ideals import (HILBERT_SCHMIDT, RealOperator, audit_self_conjugacy,
                     ideal_norms, oracle_from_dict)
from .morphisms import RespectingOperator, _respect_residuals, block_diag2
from .pelczynski import (RULES, ChainDerivation, Step, chain_from_dict,
                         check_derivation, expr, expr_from_list,
                         factorization_hypothesis_check, reference_chain,
                         search_chain)
from .report import INCONCLUSIVE, VERIFIED, VIOLATED, VerificationReport
from .spaces import (complexification_norm, complexification_norm_batch,
                     direct_sum, lp_space, norm_batch, space_from_dict)
from .structures import (UNDECIDED, certify, natural_i_operator,
                         natural_i_operator_matrix, reevaluate_witness,
                         search_i_operator, validate_i_operator,
                         witness_to_dict)
from .theory import (_complex_cartesian_reports, _conjugations,
                     _real_cartesian_reports, _squares_reports, _witnesses,
                     verify_theorem_complex, verify_theorem_real)

SCHEMA_VERSION = 1

CAVEATS = [
    "threshold-style membership oracles are decision instruments, not "
    "operator ideals closed under addition",
]

# what reading scenario data can raise on bad input
_BAD_INPUT = (IstructError, AttributeError, KeyError, OSError, TypeError,
              ValueError)


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------

def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load scenario {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError("scenario must be an object with schema = 1")
    if "seed" not in data:
        raise ScenarioError("scenario must declare a seed (reproducibility)")
    for section in ("spaces", "oracles", "claims", "suites"):
        if not isinstance(data.setdefault(section, {}), dict):
            raise ScenarioError(f"scenario section {section!r} must be an object")
    return data


def _build_all(scenario: dict, what: str, from_dict) -> dict:
    """Every named space or oracle of the scenario, built: bad data is a
    scenario error, whichever claims use it."""
    built = {}
    for name, obj in scenario.get(what + "s", {}).items():
        try:
            built[name] = from_dict(obj)
        except _BAD_INPUT as exc:
            raise ScenarioError(
                f"{what} {name!r} is invalid ({type(exc).__name__}: {exc})") from exc
    return built


# ---------------------------------------------------------------------------
# Claim parameter types
# ---------------------------------------------------------------------------

class ParamType(NamedTuple):
    """The values a claim parameter accepts, in words and as a test of
    (value, resolved spaces and oracles), and what its handler gets for one."""

    what: str
    ok: Callable
    read: Callable = lambda v, resolved: v


REQUIRED = object()  # the default of a parameter a claim must give


def _is_int(v, lo: int, even: bool = False) -> bool:
    return (not isinstance(v, bool) and isinstance(v, numbers.Integral)
            and v >= lo and not (even and v % 2))


def _integer(lo: int) -> ParamType:
    return ParamType(f"an integer >= {lo}", lambda v, _: _is_int(v, lo))


def _integers(lo: int, even: bool = False) -> ParamType:
    def ok(v, _):
        return isinstance(v, list) and v and all(_is_int(x, lo, even) for x in v)
    return ParamType(f"a nonempty list of {'even ' if even else ''}integers >= {lo}", ok)


def _named(what: str, kind: str = None) -> ParamType:
    """The name of one of the scenario's spaces or oracles (of a kind)."""
    def ok(v, resolved):
        return (isinstance(v, str) and v in resolved[what]
                and (kind is None or resolved[what][v].kind == kind))
    return ParamType(f"the name of a {kind + ' ' if kind else ''}{what} of the scenario",
                     ok, lambda v, resolved: resolved[what][v])


def _load_fixture(path: str, resolved) -> ChainDerivation:
    if path == "bundled":
        return reference_chain()
    with open(path, "r", encoding="utf-8") as fh:
        return chain_from_dict(json.load(fh))


COUNT = SAMPLES = _integer(1)
# angle 0 is the reference and every norm is even, so fewer than 3 grid
# angles check nothing
ANGLES = _integer(3)
DIMS = _integers(1)
EVEN_DIMS = _integers(2, even=True)
DIM_RANGE = ParamType("a pair [lo, hi] of integers with 1 <= lo <= hi",
                      lambda v, _: isinstance(v, list) and len(v) == 2
                      and all(_is_int(x, 1) for x in v) and v[0] <= v[1])
BOUND = ParamType("a finite number >= 0",
                  lambda v, _: not isinstance(v, bool) and isinstance(v, numbers.Real)
                  and math.isfinite(v) and v >= 0, lambda v, _: float(v))
FLAG = ParamType("true or false", lambda v, _: isinstance(v, bool))
MATRIX = ParamType("a matrix (a list of equal-length rows of numbers)",
                   lambda v, _: np.ndim(v) == 2, lambda v, _: np.asarray(v, dtype=float))
EXPR = ParamType("a nonempty list of [label, sign] atoms (labels X, Y, Z; signs +, -)",
                 lambda v, _: isinstance(v, list) and all(isinstance(a, list) for a in v),
                 lambda v, _: expr_from_list(v))
# None, the default, is every rule
RULE_IDS = ParamType(f"a nonempty list of rule ids from {sorted(RULES)}",
                     lambda v, _: v is None or (isinstance(v, list) and v and all(
                         isinstance(r, str) and r in RULES for r in v)))
FIXTURE = ParamType('"bundled" or the path of a chain file',
                    lambda v, _: isinstance(v, str), _load_fixture)
SPACE = _named("space")


# ---------------------------------------------------------------------------
# Claim handlers: (typed parameters, rng, tolerances) -> VerificationReport
# ---------------------------------------------------------------------------

def _choice(rng, seq) -> int:
    """One entry of seq, drawn from the same stream as rng.choice(seq) (a
    test checks that), without converting seq to an array."""
    return int(seq[int(rng.integers(len(seq)))])


def _h_euclidean_closed_form(params, rng, tol):
    """The closed form against the definition: ||x cos phi + y sin phi||^2 is a
    trigonometric polynomial of degree 2, whose mean over 8 uniform angles is
    exact."""
    lo, hi = params["dims"]
    phi = 2.0 * np.pi * np.arange(8) / 8
    worst = 0.0
    for _ in range(params["count"]):
        dim = int(rng.integers(lo, hi + 1))
        space = corpus_gen.random_euclidean_space(dim, rng, explicit_gram=bool(rng.integers(2)))
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        closed = complexification_norm(space, x, y)
        rows = np.cos(phi)[:, None] * x + np.sin(phi)[:, None] * y
        defined = math.sqrt(np.mean(norm_batch(space, rows) ** 2))
        worst = max(worst, abs(closed - defined))
    status = VERIFIED if worst <= 1e-10 else VIOLATED
    return VerificationReport("euclidean-closed-form", status,
                              residuals={"worst_abs_error": worst},
                              witness=None if status == VERIFIED else {"worst": worst},
                              tolerances={"abs": 1e-10})


def _h_l1_spot_value(params, rng, tol):
    value = complexification_norm(lp_space(2, 1.0), [1.0, 0.0], [0.0, 1.0])
    target = math.sqrt(1.0 + 2.0 / math.pi)
    err = abs(value - target)
    status = VERIFIED if err <= 1e-6 else VIOLATED
    return VerificationReport("l1-spot-value", status,
                              residuals={"abs_error": err, "value": value},
                              witness=None if status == VERIFIED else {"value": value},
                              tolerances={"abs": 1e-6})


def _h_rotation_invariance(params, rng, tol):
    space = params["space"]
    count = params["count"]
    angles = params["angles"]
    bound = params["tol"]
    # x then y for each pair, the order of the draws
    xy = rng.standard_normal((count, 2, space.dim))
    x, y = xy[:, None, 0, :], xy[:, None, 1, :]
    # every pair turned by every grid angle; angle 0 leaves it as it is and
    # gives the pair's reference value
    th = [2.0 * math.pi * j / angles for j in range(angles)]
    c = np.array([math.cos(t) for t in th])[:, None]
    s = np.array([math.sin(t) for t in th])[:, None]
    X = (c * x - s * y).reshape(-1, space.dim)
    Y = (s * x + c * y).reshape(-1, space.dim)
    vals = complexification_norm_batch(space, X, Y).reshape(count, angles)
    worst = float(np.max(np.abs(vals[:, 1:] - vals[:, :1]), initial=0.0))
    status = VERIFIED if worst <= bound else VIOLATED
    return VerificationReport("rotation-invariance", status,
                              residuals={"worst_abs_dev": worst},
                              witness=None if status == VERIFIED else {"worst": worst},
                              tolerances={"abs": bound})


def _h_natural_i_operator(params, rng, tol):
    s = natural_i_operator(params["space"])
    c = certify(s.space, s.A)
    ok = c.algebraic_residual <= 1e-12 and c.isometry_residual <= 1e-8
    return VerificationReport(
        "natural-i-operator", VERIFIED if ok else VIOLATED,
        residuals={"algebraic": c.algebraic_residual,
                   "isometry": c.isometry_residual},
        witness=None if ok else {"residuals": [c.algebraic_residual,
                                               c.isometry_residual]},
        tolerances={"algebraic": 1e-12, "isometry": 1e-8})


def _h_validate_structure(params, rng, tol):
    try:
        s = validate_i_operator(params["space"], params["A"], tol=tol,
                                samples=params["samples"], angles=params["angles"])
    except StructureValidationError as exc:
        c = exc.certificate
        wit = {"error": str(exc)}
        if c is not None and c.witness is not None:
            wit["witness"] = witness_to_dict(c.witness)
        return VerificationReport("validate-structure", VIOLATED,
                                  residuals={}, witness=wit)
    c = s.certificate
    return VerificationReport("validate-structure", VERIFIED,
                              residuals={"algebraic": c.algebraic_residual,
                                         "isometry": c.isometry_residual})


def _h_reject_structure(params, rng, tol):
    """Verified iff the candidate is rejected with a reproducible witness."""
    space, A = params["space"], params["A"]
    try:
        validate_i_operator(space, A, tol=tol, samples=params["samples"],
                            angles=params["angles"])
    except StructureValidationError as exc:
        c = exc.certificate
        wit = None
        reproduced = True
        if c is not None and c.witness is not None:
            redo = reevaluate_witness(space, A, c.witness)
            reproduced = abs(redo - c.isometry_residual) <= 1e-9
            wit = {**witness_to_dict(c.witness),
                   "residual": c.isometry_residual, "reevaluated": redo}
        status = VERIFIED if reproduced else VIOLATED
        return VerificationReport(
            "reject-structure", status,
            residuals={"isometry": c.isometry_residual if c else float("nan")},
            witness=wit if status == VERIFIED else {"not_reproduced": wit},
            notes=["candidate rejected as required"])
    return VerificationReport("reject-structure", VIOLATED, residuals={},
                              witness={"error": "candidate unexpectedly valid"})


def _draw_by_shape(count: int, draw: Callable) -> list:
    """count calls of draw() in order, each giving (shape, item), grouped by
    shape in order of first appearance: [(shape, corpus indices, items)]."""
    groups: dict = {}
    for i in range(count):
        shape, item = draw()
        idx, items = groups.setdefault(shape, ([], []))
        idx.append(i)
        items.append(item)
    return [(shape, idx, items) for shape, (idx, items) in groups.items()]


def _erred(outcome, error) -> bool:
    """An item fails when its check raised."""
    return error is not None


def _failed(report, error) -> bool:
    """An item fails when its check raised or its report is not ok."""
    return error is not None or not report.ok


def _corpus_outcomes(groups: list, check: Callable, fails: Callable = _erred) -> list:
    """check(shape, items) of the shape groups, (outcome, error) pairs in each
    group's order, as the outcomes in corpus order up to and including the
    first item for which fails(outcome, error) holds, where a loop over the
    items would stop: an error there is raised.  Groups come in order of
    their first item, so those whose items all lie beyond that point are not
    checked."""
    out: dict = {}
    stop = None
    for shape, idx, items in groups:
        if stop is not None and idx[0] > stop:
            break
        for i, (outcome, error) in zip(idx, check(shape, items)):
            out[i] = outcome, error
            if fails(outcome, error) and (stop is None or i < stop):
                stop = i
    if stop is not None and out[stop][1] is not None:
        raise out[stop][1]
    return [out[i][0] for i in range(len(out) if stop is None else stop + 1)]


def _worst(reports: list, key: str = None) -> float:
    """The largest residual under key of any report (under any key when key
    is None), and 0 for no reports."""
    return max([0.0] + [max(r.residuals.values()) if key is None else r.residuals[key]
                        for r in reports])


def _h_prop1_roundtrip(params, rng, tol):
    def draw():
        m = _choice(rng, params["half_dims"])
        return m, corpus_gen.complexification_draws(m, rng)

    def check(m, draws):
        c = corpus_gen._complexification_isomorphisms(
            *(np.stack(z) for z in zip(*draws)), tol=tol)
        Ts, conj_errors = _conjugations(c.S0, c.A, natural_i_operator_matrix(m),
                                        tol=1e-8)
        w = _witnesses(c.A, Ts, c.gram, None, tol=tol, norm_samples=2000,
                       seed=0)
        return zip(w.outcomes, first_errors(c.errors, conj_errors, w.errors))

    reports = _corpus_outcomes(_draw_by_shape(params["count"], draw), check)
    worst = {key: _worst(reports, key) for key in
             ("involution", "anticommutation", "inverse_composition", "norm_excess")}
    ok = (worst["involution"] <= 1e-8 and worst["anticommutation"] <= 1e-8
          and worst["inverse_composition"] <= 1e-8
          and worst["norm_excess"] <= 1e-6)
    return VerificationReport(
        "complexification-roundtrip", VERIFIED if ok else VIOLATED,
        residuals=worst, witness=None if ok else dict(worst),
        tolerances={"residuals": 1e-8, "norm_slack": 1e-6})


def _h_squares(params, rng, tol):
    def draw():
        dim = _choice(rng, params["dims"])
        return dim, corpus_gen.random_exact_structure(dim, rng)

    reports = _corpus_outcomes(
        _draw_by_shape(params["count"], draw),
        lambda dim, structures: zip(*_squares_reports(structures, tol=tol)), _failed)
    if not reports[-1].ok:
        return reports[-1]
    return VerificationReport(
        "square-space-isomorphism", VERIFIED,
        residuals={"worst_respect": _worst(reports, "respect"),
                   "worst_inverse_composition": _worst(reports, "inverse_composition")},
        tolerances={"respect": 0.0, "inverse": 1e-12})


def _h_real_cartesian(params, rng, tol):
    max_dim = params["max_dim"]

    def draw():
        m = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_dim + 1))
        return (m, n), rng.standard_normal((m, n))

    reports = _corpus_outcomes(
        _draw_by_shape(params["count"], draw),
        lambda shape, Ts: ((r, None) for r in _real_cartesian_reports(np.stack(Ts))),
        _failed)
    if not reports[-1].ok:
        return reports[-1]
    return VerificationReport("real-cartesian-identities", VERIFIED,
                              residuals={"worst_deviation": _worst(reports)},
                              tolerances={"deviation": 0.0})


def _draw_complex_op(rng, dims) -> tuple:
    """The draws of one random [T, A, B] between signed-pairing structures:
    ((dim_d, dim_c), (dom, cod, the normal matrix T is projected from))."""
    dim_d = _choice(rng, dims)
    dim_c = _choice(rng, dims)
    dom = corpus_gen.random_exact_structure(dim_d, rng)
    cod = corpus_gen.random_exact_structure(dim_c, rng)
    return (dim_d, dim_c), (dom, cod, rng.standard_normal((dim_c, dim_d)))


def _complex_ops(draws: list, tol) -> tuple:
    """The operators of one shape group of _draw_complex_op draws: the stacks
    of T, A and B, and the respect residual and error of each T."""
    doms, cods, T0s = zip(*draws)
    As = np.stack([s.A for s in doms])
    Bs = np.stack([s.A for s in cods])
    Ts = corpus_gen.respecting_part(np.stack(T0s), As, Bs)
    return (Ts, As, Bs, *_respect_residuals(Ts, As, Bs, tol))


def _random_complex_corpus(rng, dims, count, tol) -> list:
    """count random [T, A, B], drawn in order and built a shape group at a
    time; the first that fails to respect its structures raises."""
    def check(shape, draws):
        Ts, _, _, res, errors = _complex_ops(draws, tol)
        return [(RespectingOperator(dom, cod, T, r), e)
                for (dom, cod, _), T, r, e in zip(draws, Ts, res, errors)]

    return _corpus_outcomes(_draw_by_shape(count, lambda: _draw_complex_op(rng, dims)),
                            check)


def _h_complex_cartesian(params, rng, tol):
    def check(shape, draws):
        Ts, As, Bs, _, errors = _complex_ops(draws, tol)
        return zip(_complex_cartesian_reports(
            Ts, As, Bs, tol=tol, corrupt_annotation=params["corrupt"]), errors)

    reports = _corpus_outcomes(
        _draw_by_shape(params["count"], lambda: _draw_complex_op(rng, params["dims"])),
        check, _failed)
    if not reports[-1].ok:
        return reports[-1]
    return VerificationReport("complex-cartesian-identities", VERIFIED,
                              residuals={"worst": _worst(reports)},
                              tolerances={"respect": tol.tol_alg,
                                          "deviation": tol.abs_tol})


def _h_theorem_real(params, rng, tol):
    spaces = {dim: lp_space(dim, 2.0) for dim in params["dims"]}
    corpus = []
    for _ in range(params["count"]):
        dim_d = _choice(rng, params["dims"])
        dim_c = _choice(rng, params["dims"])
        corpus.append(RealOperator(rng.standard_normal((dim_c, dim_d)),
                                   spaces[dim_d], spaces[dim_c]))
    return verify_theorem_real(params["oracle"], corpus)


def _h_theorem_complex(params, rng, tol):
    corpus = _random_complex_corpus(rng, params["dims"], params["count"], tol)
    return verify_theorem_complex(params["oracle"], corpus)


def _h_self_conjugacy(params, rng, tol):
    corpus = _random_complex_corpus(rng, params["dims"], params["count"], tol)
    return audit_self_conjugacy(params["oracle"], corpus, tol=tol)


def _h_hs_doubling(params, rng, tol):
    bound = params["tol"]

    def draw():
        dim_d = _choice(rng, params["dims"])
        dim_c = _choice(rng, params["dims"])
        return (dim_d, dim_c), rng.standard_normal((dim_c, dim_d))

    worst = 0.0
    for (dim_d, dim_c), _, Ts in _draw_by_shape(params["count"], draw):
        Ts = np.stack(Ts)
        dom, cod = lp_space(dim_d, 2.0), lp_space(dim_c, 2.0)
        base = ideal_norms(HILBERT_SCHMIDT, Ts, dom, cod)
        dom2 = direct_sum(dom, dom, "complexification")
        cod2 = direct_sum(cod, cod, "complexification")
        doubled = ideal_norms(HILBERT_SCHMIDT, block_diag2(Ts), dom2, cod2)
        worst = max(worst, float(np.max(np.abs(doubled - math.sqrt(2.0) * base))))
    status = VERIFIED if worst <= bound else VIOLATED
    return VerificationReport("hs-doubling", status,
                              residuals={"worst_abs_dev": worst},
                              witness=None if status == VERIFIED else {"worst": worst},
                              tolerances={"abs": bound})


def _h_pelczynski_chain(params, rng, tol):
    return check_derivation(params["fixture"], start=expr("X+"), end=expr("X-"))


def _h_chain_mutations(params, rng, tol):
    """Every single-step rule-id mutation must fail at the mutated index."""
    chain = params["fixture"]
    rule_ids = sorted(RULES)
    failures = []
    for idx, step in enumerate(chain.steps):
        mutated_rule = rule_ids[(rule_ids.index(step.rule) + 1) % len(rule_ids)]
        steps = [Step(st.expr, st.rule, st.direction) for st in chain.steps]
        steps[idx] = Step(step.expr, mutated_rule, step.direction)
        rep = check_derivation(ChainDerivation(chain.start, steps))
        if rep.ok or not (isinstance(rep.witness, dict)
                          and rep.witness.get("step") == idx):
            failures.append({"index": idx, "mutated_to": mutated_rule,
                             "status": rep.status, "witness": rep.witness})
    status = VERIFIED if not failures else VIOLATED
    return VerificationReport("chain-mutations", status,
                              residuals={"failures": float(len(failures))},
                              witness=failures or None)


def _h_chain_search(params, rng, tol):
    source, target = params["from"], params["to"]
    rules = params["rules"]
    expect_found = params["expect_found"]
    chain = search_chain(source, target, params["depth"], rules=rules)
    if chain is None:
        found = False
        sound = True
        length = -1
    else:
        found = True
        length = len(chain.steps)
        sound = check_derivation(chain, start=source, end=target).ok
    ok = (found == expect_found) and sound
    return VerificationReport(
        "chain-search", VERIFIED if ok else VIOLATED,
        residuals={"length": float(length)},
        witness=None if ok else {"found": found, "expected": expect_found,
                                 "sound": sound},
        notes=[f"rules: {rules or 'all'}"])


def _h_factorization_check(params, rng, tol):
    s = validate_i_operator(params["space"], params["A"], tol=tol)
    return factorization_hypothesis_check(params["R"], params["S"], s, tol=tol)


def _h_search_structure(params, rng, tol):
    expect_found = params["expect_found"]
    result = search_i_operator(params["space"], tol=tol)
    found = result.found is not None
    if result.tag == UNDECIDED:
        status = INCONCLUSIVE
    else:
        status = VERIFIED if found == expect_found else VIOLATED
    return VerificationReport(
        "structure-search", status,
        residuals={"best_residual": result.best_residual
                   if math.isfinite(result.best_residual) else -1.0},
        witness=None if status != VIOLATED else {"found": found,
                                                 "expected": expect_found,
                                                 "tag": result.tag},
        notes=[f"tag: {result.tag}"])


_STRUCTURE = {"space": (SPACE, REQUIRED), "A": (MATRIX, REQUIRED),
              "samples": (SAMPLES, 512), "angles": (ANGLES, 64)}
_COMPLEX_CORPUS = {"oracle": (_named("oracle", "complex"), REQUIRED),
                   "dims": (EVEN_DIMS, [2, 4])}
_FIXTURE = {"fixture": (FIXTURE, "bundled")}
_FLIP = [[1.0, 0.0], [0.0, -1.0]]

# kind -> (handler, {parameter: (type, default or REQUIRED)}); a parameter the
# schema does not list is ignored (older files give search-structure a budget
# and natural-i-operator samples, angles and a seed)
CLAIMS = {
    "euclidean-closed-form": (_h_euclidean_closed_form,
                              {"count": (COUNT, 50), "dims": (DIM_RANGE, [2, 8])}),
    "l1-spot-value": (_h_l1_spot_value, {}),
    "rotation-invariance": (_h_rotation_invariance,
                            {"space": (SPACE, REQUIRED), "count": (COUNT, 25),
                             "angles": (ANGLES, 16), "tol": (BOUND, 1e-8)}),
    "natural-i-operator": (_h_natural_i_operator, {"space": (SPACE, REQUIRED)}),
    "validate-structure": (_h_validate_structure, _STRUCTURE),
    "reject-structure": (_h_reject_structure, _STRUCTURE),
    "prop1-roundtrip": (_h_prop1_roundtrip,
                        {"count": (COUNT, 10), "half_dims": (DIMS, [1, 2, 3])}),
    "squares": (_h_squares, {"count": (COUNT, 10), "dims": (EVEN_DIMS, [2, 4, 6])}),
    "real-cartesian": (_h_real_cartesian,
                       {"count": (COUNT, 25), "max_dim": (_integer(1), 6)}),
    "complex-cartesian": (_h_complex_cartesian,
                          {"count": (COUNT, 25), "dims": (EVEN_DIMS, [2, 4]),
                           "corrupt": (FLAG, False)}),
    "theorem-real": (_h_theorem_real,
                     {"oracle": (_named("oracle", "real"), REQUIRED),
                      "count": (COUNT, 30), "dims": (DIMS, [1, 2, 3])}),
    "theorem-complex": (_h_theorem_complex, {**_COMPLEX_CORPUS, "count": (COUNT, 30)}),
    "self-conjugacy": (_h_self_conjugacy, {**_COMPLEX_CORPUS, "count": (COUNT, 20)}),
    "hs-doubling": (_h_hs_doubling,
                    {"count": (COUNT, 25), "dims": (DIMS, [1, 2, 3, 4]),
                     "tol": (BOUND, 1e-10)}),
    "pelczynski-chain": (_h_pelczynski_chain, _FIXTURE),
    "chain-mutations": (_h_chain_mutations, _FIXTURE),
    "chain-search": (_h_chain_search,
                     {"from": (EXPR, [["X", "+"]]), "to": (EXPR, [["X", "-"]]),
                      "depth": (_integer(0), 10), "rules": (RULE_IDS, None),
                      "expect_found": (FLAG, True)}),
    "factorization-check": (_h_factorization_check,
                            {"space": (SPACE, "plane-l2"),
                             "A": (MATRIX, [[0.0, -1.0], [1.0, 0.0]]),
                             "R": (MATRIX, _FLIP), "S": (MATRIX, _FLIP)}),
    "search-structure": (_h_search_structure,
                         {"space": (SPACE, REQUIRED), "expect_found": (FLAG, True)}),
}


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def parse_claim(claim_id: str, claim, resolved: dict) -> tuple:
    """(kind, expect, typed parameters) of a claim, checked against its
    schema; ``resolved`` maps "space" and "oracle" to the built objects by
    name.  Bad input is a scenario error naming the claim and the key."""
    if not isinstance(claim, dict):
        raise ScenarioError(f"claim {claim_id!r} must be an object, got {claim!r}")
    kind = claim.get("kind")
    if not isinstance(kind, str) or kind not in CLAIMS:
        raise ScenarioError(f"claim {claim_id!r} has unknown kind {kind!r}")
    expect = claim.get("expect", VERIFIED)
    if expect not in (VERIFIED, VIOLATED, INCONCLUSIVE):
        raise ScenarioError(f"claim {claim_id!r} expects unknown status {expect!r}")
    params = {}
    for key, (ptype, default) in CLAIMS[kind][1].items():
        value = claim.get(key, default)
        if value is REQUIRED:
            raise ScenarioError(f"claim {claim_id!r} lacks parameter {key!r}")
        try:
            if not ptype.ok(value, resolved):
                raise ValueError()  # reported without detail
            params[key] = ptype.read(value, resolved)
        except _BAD_INPUT as exc:
            detail = f" ({exc})" if str(exc) else ""
            raise ScenarioError(f"claim {claim_id!r} parameter {key!r} must be "
                                f"{ptype.what}, got {value!r}{detail}") from exc
    return kind, expect, params


def run_claim(claim_id: str, parsed: tuple, seed: int, tol: Tolerances) -> dict:
    kind, expect, params = parsed
    rng = np.random.default_rng([seed, zlib.crc32(claim_id.encode())])
    try:
        report = CLAIMS[kind][0](params, rng, tol)
    except IstructError as exc:
        report = VerificationReport(kind, VIOLATED, residuals={},
                                    witness={"error": str(exc)})
    outcome = VERIFIED if report.status == expect else VIOLATED
    entry = {"id": claim_id, "kind": kind, "expected": expect,
             "outcome": outcome, "report": report.to_dict()}
    return _jsonify(entry)


def run_suite(scenario: dict, suite: str, *, seed=None, tol_alg=None,
              tol_iso=None) -> dict:
    suites = scenario["suites"]
    if suite not in suites:
        raise ScenarioError(f"unknown suite {suite!r}")
    seed = scenario["seed"] if seed is None else seed
    if not _is_int(seed, 0):
        raise ScenarioError(f"seed must be an integer >= 0, got {seed!r}")
    seed = int(seed)
    tols = dict(scenario.get("tolerances", {}))
    if tol_alg is not None:
        tols["tol_alg"] = tol_alg
    if tol_iso is not None:
        tols["tol_iso"] = tol_iso
    try:
        tol = Tolerances(**{k: float(v) for k, v in tols.items()})
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid tolerances {tols!r} ({exc})") from exc

    claim_ids = suites[suite]
    claims = scenario["claims"]
    for cid in claim_ids:
        if cid not in claims:
            raise ScenarioError(f"suite {suite!r} references unknown claim {cid!r}")
    resolved = {"space": _build_all(scenario, "space", space_from_dict),
                "oracle": _build_all(scenario, "oracle", oracle_from_dict)}
    parsed = {cid: parse_claim(cid, claim, resolved) for cid, claim in claims.items()}

    results = [run_claim(cid, parsed[cid], seed, tol) for cid in claim_ids]

    return {"schema": SCHEMA_VERSION, "suite": suite, "seed": seed,
            "tolerances": {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol,
                           "tol_alg": tol.tol_alg, "tol_iso": tol.tol_iso},
            "caveats": CAVEATS,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "claims": results}


def bundled_scenario_path() -> str:
    return str(resources.files("istruct.data") / "paper_all.json")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def list_suites(path: str) -> list:
    scenario = load_scenario(path)
    return sorted(scenario["suites"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="istruct",
                                     description="run scenario verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one suite from a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--suite", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tol-alg", type=float, default=None)
    p_run.add_argument("--tol-iso", type=float, default=None)

    p_list = sub.add_parser("list-suites", help="print suite names, sorted")
    p_list.add_argument("scenario")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-suites":
            for name in list_suites(args.scenario):
                print(name)
            return 0
        scenario = load_scenario(args.scenario)
        report = run_suite(scenario, args.suite, seed=args.seed,
                           tol_alg=args.tol_alg, tol_iso=args.tol_iso)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        bad = [c for c in report["claims"] if c["outcome"] != VERIFIED]
        if bad:
            for c in bad:
                print(f"FAILED: {c['id']} ({c['kind']})", file=sys.stderr)
            return 1
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
