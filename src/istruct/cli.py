"""Scenario-driven command line: load definitions, run named verification
suites, emit JSON reports.

Exit status: 0 all claims came out as expected, 1 at least one claim failed,
2 parse or resolution error.  Claims run in declaration order, which is the
order of the report.
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

import numpy as np

from . import corpus as corpus_gen
from .config import Tolerances
from .errors import (DescriptorError, IstructError, ScenarioError,
                     StructureValidationError)
from .ideals import (HILBERT_SCHMIDT, IdealOracle, RealOperator,
                     audit_self_conjugacy, ideal_norm, oracle_from_dict)
from .morphisms import block_diag2
from .pelczynski import (RULES, ChainDerivation, Step, chain_from_dict,
                         check_derivation, expr, expr_from_list,
                         factorization_hypothesis_check, reference_chain,
                         search_chain)
from .report import INCONCLUSIVE, VERIFIED, VIOLATED, VerificationReport
from .spaces import (complexification_norm, complexification_norm_batch,
                     lp_space, norm_batch, space_from_dict)
from .structures import (UNDECIDED, natural_i_operator, reevaluate_witness,
                         search_i_operator, validate_i_operator)
from .theory import (build_complexification_witness, extract_conjugation,
                     verify_complex_cartesian_identities,
                     verify_real_cartesian_identities,
                     verify_squares_isomorphism, verify_theorem_complex,
                     verify_theorem_real)

SCHEMA_VERSION = 1

CAVEATS = [
    "threshold-style membership oracles are decision instruments, not "
    "operator ideals closed under addition",
]


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
    for section in ("spaces", "structures", "oracles", "claims", "suites"):
        if not isinstance(data.setdefault(section, {}), dict):
            raise ScenarioError(f"scenario section {section!r} must be an object")
    return data


class Resolver:
    """The named spaces and oracles of a scenario, all built when it is
    resolved: bad data is a scenario error, whichever claims use it."""

    def __init__(self, scenario: dict):
        self.spaces = {name: _build("space", name, space_from_dict, obj)
                       for name, obj in scenario.get("spaces", {}).items()}
        self.oracles = {name: _build("oracle", name, oracle_from_dict, obj)
                        for name, obj in scenario.get("oracles", {}).items()}

    def space(self, name: str):
        if name not in self.spaces:
            raise ScenarioError(f"unknown space {name!r}")
        return self.spaces[name]

    def oracle(self, name: str) -> IdealOracle:
        if name not in self.oracles:
            raise ScenarioError(f"unknown oracle {name!r}")
        return self.oracles[name]


def _build(what: str, name: str, from_dict, obj):
    try:
        return from_dict(obj)
    except (DescriptorError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(
            f"{what} {name!r} is invalid ({type(exc).__name__}: {exc})") from exc


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Claim handlers (each returns a VerificationReport)
# ---------------------------------------------------------------------------

def _rng_for(seed: int, claim_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(claim_id.encode())])


def _h_euclidean_closed_form(params, res, rng, tol):
    """The closed form against the definition: ||x cos phi + y sin phi||^2 is a
    trigonometric polynomial of degree 2, whose mean over 8 uniform angles is
    exact."""
    count = params.integer("count", 50)
    lo, hi = params.integers("dims", [2, 8], length=2)
    phi = 2.0 * np.pi * np.arange(8) / 8
    worst = 0.0
    for _ in range(count):
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


def _h_l1_spot_value(params, res, rng, tol):
    value = complexification_norm(lp_space(2, 1.0), [1.0, 0.0], [0.0, 1.0])
    target = math.sqrt(1.0 + 2.0 / math.pi)
    err = abs(value - target)
    status = VERIFIED if err <= 1e-6 else VIOLATED
    return VerificationReport("l1-spot-value", status,
                              residuals={"abs_error": err, "value": value},
                              witness=None if status == VERIFIED else {"value": value},
                              tolerances={"abs": 1e-6})


def _h_rotation_invariance(params, res, rng, tol):
    space = res.space(params["space"])
    count = params.integer("count", 25)
    angles = params.integer("angles", 16)
    bound = params.number("tol", 1e-8)
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


def _h_natural_i_operator(params, res, rng, tol):
    base = res.space(params["space"])
    samples = params.integer("samples", 512)
    ang = params.integer("angles", 64)
    try:
        s = natural_i_operator(base, tol=tol, samples=samples, angles=ang,
                               seed=params.integer("seed", 0))
    except StructureValidationError as exc:
        c = exc.certificate
        return VerificationReport(
            "natural-i-operator", VIOLATED,
            residuals={"algebraic": c.algebraic_residual if c else float("nan"),
                       "isometry": c.isometry_residual if c else float("nan")},
            witness={"error": str(exc)})
    c = s.certificate
    ok = c.algebraic_residual <= 1e-12 and c.isometry_residual <= 1e-8
    return VerificationReport(
        "natural-i-operator", VERIFIED if ok else VIOLATED,
        residuals={"algebraic": c.algebraic_residual,
                   "isometry": c.isometry_residual},
        witness=None if ok else {"residuals": [c.algebraic_residual,
                                               c.isometry_residual]},
        tolerances={"algebraic": 1e-12, "isometry": 1e-8})


def _h_validate_structure(params, res, rng, tol):
    space = res.space(params["space"])
    A = params.matrix("A")
    try:
        s = validate_i_operator(space, A, tol=tol,
                                samples=params.integer("samples", 512),
                                angles=params.integer("angles", 64))
    except StructureValidationError as exc:
        c = exc.certificate
        wit = {"error": str(exc)}
        if c is not None and c.witness is not None:
            wit["witness"] = {"x": np.asarray(c.witness[0]).tolist(),
                              "alpha": c.witness[1], "beta": c.witness[2]}
        return VerificationReport("validate-structure", VIOLATED,
                                  residuals={}, witness=wit)
    c = s.certificate
    return VerificationReport("validate-structure", VERIFIED,
                              residuals={"algebraic": c.algebraic_residual,
                                         "isometry": c.isometry_residual})


def _h_reject_structure(params, res, rng, tol):
    """Verified iff the candidate is rejected with a reproducible witness."""
    space = res.space(params["space"])
    A = params.matrix("A")
    try:
        validate_i_operator(space, A, tol=tol,
                            samples=params.integer("samples", 512),
                            angles=params.integer("angles", 64))
    except StructureValidationError as exc:
        c = exc.certificate
        wit = None
        reproduced = True
        if c is not None and c.witness is not None:
            redo = reevaluate_witness(space, A, c.witness)
            reproduced = abs(redo - c.isometry_residual) <= 1e-9
            wit = {"x": np.asarray(c.witness[0]).tolist(),
                   "alpha": c.witness[1], "beta": c.witness[2],
                   "residual": c.isometry_residual,
                   "reevaluated": redo}
        status = VERIFIED if reproduced else VIOLATED
        return VerificationReport(
            "reject-structure", status,
            residuals={"isometry": c.isometry_residual if c else float("nan")},
            witness=wit if status == VERIFIED else {"not_reproduced": wit},
            notes=["candidate rejected as required"])
    return VerificationReport("reject-structure", VIOLATED, residuals={},
                              witness={"error": "candidate unexpectedly valid"})


def _h_prop1_roundtrip(params, res, rng, tol):
    count = params.integer("count", 10)
    half_dims = params.integers("half_dims", [1, 2, 3])
    worst = {"involution": 0.0, "anticommutation": 0.0,
             "inverse_composition": 0.0, "norm_excess": 0.0}
    for _ in range(count):
        m = int(rng.choice(half_dims))
        s, iso = corpus_gen.random_complexification_isomorphism(m, rng, tol=tol)
        T = extract_conjugation(iso, tol=1e-8)
        wit = build_complexification_witness(s, T, tol=tol)
        r = wit.report.residuals
        for key in worst:
            worst[key] = max(worst[key], r[key])
    ok = (worst["involution"] <= 1e-8 and worst["anticommutation"] <= 1e-8
          and worst["inverse_composition"] <= 1e-8
          and worst["norm_excess"] <= 1e-6)
    return VerificationReport(
        "complexification-roundtrip", VERIFIED if ok else VIOLATED,
        residuals=worst, witness=None if ok else dict(worst),
        tolerances={"residuals": 1e-8, "norm_slack": 1e-6})


def _h_squares(params, res, rng, tol):
    count = params.integer("count", 10)
    dims = params.integers("dims", [2, 4, 6])
    worst_respect = worst_inv = 0.0
    for _ in range(count):
        dim = int(rng.choice(dims))
        s = corpus_gen.random_exact_structure(dim, rng, tol=tol)
        rep = verify_squares_isomorphism(s, tol=tol, samples=64, angles=16)
        if not rep.ok:
            return rep
        worst_respect = max(worst_respect, rep.residuals["respect"])
        worst_inv = max(worst_inv, rep.residuals["inverse_composition"])
    return VerificationReport(
        "square-space-isomorphism", VERIFIED,
        residuals={"worst_respect": worst_respect,
                   "worst_inverse_composition": worst_inv},
        tolerances={"respect": 0.0, "inverse": 1e-12})


def _h_real_cartesian(params, res, rng, tol):
    count = params.integer("count", 25)
    max_dim = params.integer("max_dim", 6)
    worst = 0.0
    for _ in range(count):
        m = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_dim + 1))
        rep = verify_real_cartesian_identities(rng.standard_normal((m, n)))
        if not rep.ok:
            return rep
        worst = max(worst, max(rep.residuals.values()))
    return VerificationReport("real-cartesian-identities", VERIFIED,
                              residuals={"worst_deviation": worst},
                              tolerances={"deviation": 0.0})


def _random_complex_op(rng, dims, tol):
    dim_d = int(rng.choice(dims))
    dim_c = int(rng.choice(dims))
    dom = corpus_gen.random_exact_structure(dim_d, rng, tol=tol)
    cod = corpus_gen.random_exact_structure(dim_c, rng, tol=tol)
    return corpus_gen.random_respecting_operator(dom, cod, rng, tol=tol)


def _h_complex_cartesian(params, res, rng, tol):
    count = params.integer("count", 25)
    dims = params.integers("dims", [2, 4])
    corrupt = params.flag("corrupt", False)
    worst = 0.0
    for _ in range(count):
        op = _random_complex_op(rng, dims, tol)
        rep = verify_complex_cartesian_identities(op, tol=tol,
                                                  corrupt_annotation=corrupt)
        if not rep.ok:
            return rep
        worst = max(worst, max(rep.residuals.values()))
    return VerificationReport("complex-cartesian-identities", VERIFIED,
                              residuals={"worst": worst},
                              tolerances={"respect": tol.tol_alg,
                                          "deviation": tol.abs_tol})


def _h_theorem_real(params, res, rng, tol):
    oracle = res.oracle(params["oracle"])
    count = params.integer("count", 30)
    dims = params.integers("dims", [1, 2, 3])
    corpus = []
    for _ in range(count):
        dim_d = int(rng.choice(dims))
        dim_c = int(rng.choice(dims))
        corpus.append(RealOperator(rng.standard_normal((dim_c, dim_d)),
                                   lp_space(dim_d, 2.0), lp_space(dim_c, 2.0)))
    return verify_theorem_real(oracle, corpus)


def _h_theorem_complex(params, res, rng, tol):
    oracle = res.oracle(params["oracle"])
    count = params.integer("count", 30)
    dims = params.integers("dims", [2, 4])
    corpus = [_random_complex_op(rng, dims, tol) for _ in range(count)]
    return verify_theorem_complex(oracle, corpus)


def _h_self_conjugacy(params, res, rng, tol):
    oracle = res.oracle(params["oracle"])
    count = params.integer("count", 20)
    dims = params.integers("dims", [2, 4])
    corpus = [_random_complex_op(rng, dims, tol) for _ in range(count)]
    return audit_self_conjugacy(oracle, corpus, tol=tol)


def _h_hs_doubling(params, res, rng, tol):
    count = params.integer("count", 25)
    dims = params.integers("dims", [1, 2, 3, 4])
    bound = params.number("tol", 1e-10)
    worst = 0.0
    for _ in range(count):
        dim_d = int(rng.choice(dims))
        dim_c = int(rng.choice(dims))
        T = rng.standard_normal((dim_c, dim_d))
        dom, cod = lp_space(dim_d, 2.0), lp_space(dim_c, 2.0)
        base = ideal_norm(HILBERT_SCHMIDT, T, dom, cod).value
        dom2 = natural_i_operator(dom, tol=tol).space
        cod2 = natural_i_operator(cod, tol=tol).space
        doubled = ideal_norm(HILBERT_SCHMIDT, block_diag2(T), dom2, cod2).value
        worst = max(worst, abs(doubled - math.sqrt(2.0) * base))
    status = VERIFIED if worst <= bound else VIOLATED
    return VerificationReport("hs-doubling", status,
                              residuals={"worst_abs_dev": worst},
                              witness=None if status == VERIFIED else {"worst": worst},
                              tolerances={"abs": bound})


def _load_chain(params):
    fixture = params.get("fixture", "bundled")
    if fixture == "bundled":
        return reference_chain()
    try:
        with open(fixture, "r", encoding="utf-8") as fh:
            return chain_from_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"claim {params.claim_id!r} cannot load fixture "
                            f"{fixture!r}: {exc}") from exc


def _h_pelczynski_chain(params, res, rng, tol):
    chain = _load_chain(params)
    return check_derivation(chain, start=expr("X+"), end=expr("X-"))


def _h_chain_mutations(params, res, rng, tol):
    """Every single-step rule-id mutation must fail at the mutated index."""
    chain = _load_chain(params)
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


def _h_chain_search(params, res, rng, tol):
    source = expr_from_list(params.get("from", [["X", "+"]]))
    target = expr_from_list(params.get("to", [["X", "-"]]))
    depth = params.integer("depth", 10)
    rules = params.get("rules")
    expect_found = params.flag("expect_found", True)
    chain = search_chain(source, target, depth, rules=rules)
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


def _h_factorization_check(params, res, rng, tol):
    space = res.space(params.get("space", "plane-l2"))
    A = params.matrix("A", [[0.0, -1.0], [1.0, 0.0]])
    s = validate_i_operator(space, A, tol=tol)
    R = params.matrix("R", [[1.0, 0.0], [0.0, -1.0]])
    S = params.matrix("S", [[1.0, 0.0], [0.0, -1.0]])
    return factorization_hypothesis_check(R, S, s, tol=tol)


def _h_search_structure(params, res, rng, tol):
    # a "budget" key from older scenario files is ignored: the decision is exact
    space = res.space(params["space"])
    expect_found = params.flag("expect_found", True)
    result = search_i_operator(space, tol=tol)
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


HANDLERS = {
    "euclidean-closed-form": _h_euclidean_closed_form,
    "l1-spot-value": _h_l1_spot_value,
    "rotation-invariance": _h_rotation_invariance,
    "natural-i-operator": _h_natural_i_operator,
    "validate-structure": _h_validate_structure,
    "reject-structure": _h_reject_structure,
    "prop1-roundtrip": _h_prop1_roundtrip,
    "squares": _h_squares,
    "real-cartesian": _h_real_cartesian,
    "complex-cartesian": _h_complex_cartesian,
    "theorem-real": _h_theorem_real,
    "theorem-complex": _h_theorem_complex,
    "self-conjugacy": _h_self_conjugacy,
    "hs-doubling": _h_hs_doubling,
    "pelczynski-chain": _h_pelczynski_chain,
    "chain-mutations": _h_chain_mutations,
    "chain-search": _h_chain_search,
    "factorization-check": _h_factorization_check,
    "search-structure": _h_search_structure,
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


class _ClaimParams(dict):
    """A claim's parameters.  A missing required one, or one of the wrong
    type, is a scenario error that names the claim and the key."""

    def __init__(self, claim_id: str, claim: dict):
        super().__init__(claim)
        self.claim_id = claim_id

    def __missing__(self, key):
        raise ScenarioError(f"claim {self.claim_id!r} lacks parameter {key!r}")

    def _what(self, key) -> str:
        return f"claim {self.claim_id!r} parameter {key!r}"

    def integer(self, key, default) -> int:
        return _integer(self.get(key, default), self._what(key))

    def integers(self, key, default, length=None) -> list:
        value = self.get(key, default)
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            size = f"{length} integers" if length else "integers"
            raise ScenarioError(f"{self._what(key)} must be a list of {size}, got {value!r}")
        return [_integer(v, self._what(key)) for v in value]

    def flag(self, key, default) -> bool:
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise ScenarioError(f"{self._what(key)} must be true or false, got {value!r}")
        return value

    def number(self, key, default) -> float:
        value = self.get(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ScenarioError(f"{self._what(key)} must be a number, got {value!r}")
        return float(value)

    def matrix(self, key, default=None) -> np.ndarray:
        value = self[key] if default is None else self.get(key, default)
        try:
            A = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            A = None
        if A is None or A.ndim != 2:
            raise ScenarioError(f"{self._what(key)} must be a matrix, got {value!r}")
        return A


def run_claim(claim_id: str, claim: dict, res: Resolver, seed: int,
              tol: Tolerances) -> dict:
    if not isinstance(claim, dict):
        raise ScenarioError(f"claim {claim_id!r} must be an object, got {claim!r}")
    kind = claim.get("kind")
    handler = HANDLERS.get(kind)
    if handler is None:
        raise ScenarioError(f"claim {claim_id!r} has unknown kind {kind!r}")
    expect = claim.get("expect", VERIFIED)
    if expect not in (VERIFIED, VIOLATED, INCONCLUSIVE):
        raise ScenarioError(f"claim {claim_id!r} expects unknown status {expect!r}")
    rng = _rng_for(seed, claim_id)
    try:
        report = handler(_ClaimParams(claim_id, claim), res, rng, tol)
    except ScenarioError:
        raise
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
    seed = _integer(scenario["seed"] if seed is None else seed, "seed")
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
    res = Resolver(scenario)

    results = [run_claim(cid, claims[cid], res, seed, tol) for cid in claim_ids]

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
