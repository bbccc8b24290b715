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
import sys
import zlib
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import corpus as corpus_gen
from .config import MAX_FLOATS, Tolerances
from .errors import (IstructError, ScenarioError, StructureValidationError,
                     first_errors, is_json_int, is_json_number, unknown_keys)
from .ideals import (HILBERT_SCHMIDT, GroupedCorpus, audit_self_conjugacy,
                     ideal_norms, oracle_from_dict)
from .pelczynski import (RULES, ChainDerivation, Step, chain_from_dict,
                         check_derivation, expr, expr_from_list,
                         factorization_hypothesis_check, reference_chain,
                         search_chain)
from .report import INCONCLUSIVE, VERIFIED, VIOLATED, VerificationReport, bounded
from .spaces import (_gram_complexification_norms, _gram_errors, _gram_norms,
                     block_diag2, complexification_norm,
                     complexification_norm_batch, lp_space, space_from_dict)
from .structures import (BY_CONSTRUCTION, DEFAULT_SAMPLE_ANGLES,
                         DEFAULT_SAMPLE_VECTORS, MIN_SAMPLE_ANGLES,
                         MIN_SAMPLE_VECTORS, UNDECIDED, certify, natural_i_operator,
                         natural_i_operator_matrix, reevaluate_witness,
                         search_i_operator, validate_i_operator,
                         witness_to_dict)
from .theory import (HYP_TOL, REAL_CARTESIAN, ROUNDTRIP, _complex_cartesian_check,
                     _complex_cartesian_residuals, _conjugations, _real_cartesian_residuals,
                     _Residuals, _squares_check, _squares_residuals, _witnesses,
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

def _read_json(path: str, what: str):
    """The JSON value in the file at path; a file that cannot be read or
    decoded, or nests too deep to decode, is a ScenarioError naming what it is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load {what} {path}: {exc}") from exc


def load_scenario(path: str) -> dict:
    data = _read_json(path, "scenario")
    _check_scenario(data)
    return data


_SECTIONS = ("spaces", "oracles", "claims", "suites", "tolerances")
# arrays and objects a scenario may nest: a space of 30 sum levels, far inside
# the 200 levels that the recursion of space_from_dict supports
MAX_DEPTH = 64


def _check_scenario(data) -> None:
    """Check a scenario's keys, schema, seed, sections (an absent one is
    empty), suites and nesting depth."""
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"scenario must be an object with schema = {SCHEMA_VERSION}")
    level = [data]  # the arrays and objects at one depth
    for _ in range(MAX_DEPTH):
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)
                 if isinstance(v, (dict, list))]
    if level:
        raise ScenarioError(f"scenario nests arrays and objects more than {MAX_DEPTH} deep")
    if unknown := unknown_keys(data, {"schema", "seed", *_SECTIONS}):
        raise ScenarioError(f"scenario has unknown key(s) {unknown}")
    if "seed" not in data:
        raise ScenarioError("scenario must declare a seed (reproducibility)")
    for section in _SECTIONS:
        if not isinstance(data.setdefault(section, {}), dict):
            raise ScenarioError(f"scenario section {section!r} must be an object")
    for name, claim_ids in data["suites"].items():
        if not (isinstance(claim_ids, list) and all(isinstance(c, str) for c in claim_ids)):
            raise ScenarioError(
                f"suite {name!r} must be a list of claim ids, got {claim_ids!r}")
        for cid in claim_ids:
            if cid not in data["claims"]:
                raise ScenarioError(f"suite {name!r} references unknown claim {cid!r}")


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
    (value, resolved spaces and oracles), what its handler gets for one, and
    for a corpus's dimensions the largest dimension its draws reach."""

    what: str
    ok: Callable
    read: Callable = lambda v, resolved: v
    reach: Callable = None


REQUIRED = object()  # the default of a parameter a claim must give


def _is_int(v, lo: int, even: bool = False) -> bool:
    return is_json_int(v) and v >= lo and not (even and v % 2)


def _integer(lo: int) -> ParamType:
    return ParamType(f"an integer >= {lo}", lambda v, _: _is_int(v, lo))


def _integers(lo: int, even: bool = False) -> ParamType:
    def ok(v, _):
        return isinstance(v, list) and v and all(_is_int(x, lo, even) for x in v)
    return ParamType(f"a nonempty list of {'even ' if even else ''}integers >= {lo}", ok)


def _l2(dims: ParamType) -> ParamType:
    """dims read as the l2 spaces of those dimensions, the ones corpus shares."""
    return dims._replace(read=lambda v, _: [corpus_gen._euclidean(int(d)) for d in v],
                         reach=max)


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
    return chain_from_dict(_read_json(path, "chain"))


COUNT = _integer(1)
SAMPLES, ANGLES = _integer(MIN_SAMPLE_VECTORS), _integer(MIN_SAMPLE_ANGLES)
DIMS = _l2(_integers(1))
EVEN_DIMS = _l2(_integers(2, even=True))
HALF_DIMS = _integers(1)._replace(reach=lambda v: 2 * max(v))
DIM_RANGE = ParamType("a pair [lo, hi] of integers with 1 <= lo <= hi",
                      lambda v, _: isinstance(v, list) and len(v) == 2
                      and all(_is_int(x, 1) for x in v) and v[0] <= v[1],
                      reach=lambda v: v[1])
MAX_DIM = _integer(1)._replace(reach=lambda v: v)
# count x (2 d)**2 floats, at most MAX_FLOATS, in a corpus claim, d the largest
# dimension its draws reach: the largest bundled or benchmark corpus is 300 x
# 12**2 = 43,200 (exact-algebra's real-cartesian).  It keeps draws below 2**32
# kind -> (the parameter turned through 'angles', the vectors of the claim's
# space that each of its items turns): their product with angles and the
# space's dimension counts the floats a sampled claim asks for, bounded by
# MAX_FLOATS too.  The largest bundled or benchmark one is 128 x 16 x 1 x 4
# = 8,192 (paper-all's validate-cplx-l1)
_SAMPLED = {"rotation-invariance": ("count", 2), "validate-structure": ("samples", 1),
            "reject-structure": ("samples", 1)}
BOUND = ParamType("a finite number >= 0", lambda v, _: is_json_number(v) and 0 <= v < math.inf,
                  lambda v, _: float(v))
FLAG = ParamType("true or false", lambda v, _: isinstance(v, bool))
MATRIX = ParamType("a matrix (a list of equal-length rows of finite numbers)",
                   lambda v, _: np.ndim(v) == 2 and all(
                       is_json_number(x) and math.isfinite(x) for row in v for x in row),
                   lambda v, _: np.asarray(v, dtype=float))
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

def _h_euclidean_closed_form(params, rng, tol):
    """The closed form against the definition: ||x cos phi + y sin phi||^2 is a
    trigonometric polynomial of degree 2, whose mean over 8 uniform angles is
    exact.  Each item draws a dim, whether its space has an explicit Gram (and
    then the Gram's normal draws), x and y; the items run a (dim, explicit
    Gram) group at a time through the stacked Gram kernels, l2 as the Gram I,
    and an invalid Gram raises the error of building its space."""
    lo, hi = params["dims"]
    phi = 2.0 * np.pi * np.arange(8) / 8

    def draw(stream):
        dim = lo + stream.below(hi + 1 - lo)
        explicit_gram = bool(stream.below(2))
        Z = rng.standard_normal((dim, dim)) if explicit_gram else None
        return (dim, explicit_gram), (Z, rng.standard_normal(dim), rng.standard_normal(dim))

    def check(shape, draws):
        (dim, explicit_gram), (Zs, xs, ys) = shape, zip(*draws)
        X, Y = np.stack(xs), np.stack(ys)
        rows = np.cos(phi)[:, None] * X[:, None, :] + np.sin(phi)[:, None] * Y[:, None, :]
        errors, grams = _gram_errors(corpus_gen._random_grams(np.stack(Zs)) if explicit_gram
                                     else np.broadcast_to(np.eye(dim), (len(X), dim, dim)))
        closed = _gram_complexification_norms(grams, X, Y)
        defined = np.sqrt(np.mean(_gram_norms(grams, rows) ** 2, axis=1))
        return np.abs(closed - defined)[:, None], errors

    return _corpus_verdict(rng, params["count"], draw, check, _Residuals(
        "euclidean-closed-form", ("abs_error",), np.array([1e-10]), {"abs": 1e-10}),
        {"worst_abs_error": 0}, lambda shape, _: {"dim": shape[0], "explicit_gram": shape[1]})


def _h_l1_spot_value(params, rng, tol):
    value = complexification_norm(lp_space(2, 1.0), [1.0, 0.0], [0.0, 1.0])
    target = math.sqrt(1.0 + 2.0 / math.pi)
    err = abs(value - target)
    return bounded("l1-spot-value", err <= 1e-6, {"abs_error": err, "value": value},
                   {"abs": 1e-6}, {"value": value})


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
    return bounded("rotation-invariance", worst <= bound, {"worst_abs_dev": worst},
                   {"abs": bound}, {"worst": worst})


def _h_natural_i_operator(params, rng, tol):
    """N's certificate, held to the claim's tolerances or the run's tighter ones."""
    s = natural_i_operator(params["space"])
    c = certify(s.space, s.A)
    tol_alg, tol_iso = min(1e-12, tol.tol_alg), min(1e-8, tol.tol_iso)
    return bounded(
        "natural-i-operator",
        c.algebraic_residual <= tol_alg and c.isometry_residual <= tol_iso,
        {"algebraic": c.algebraic_residual, "isometry": c.isometry_residual},
        {"algebraic": tol_alg, "isometry": tol_iso},
        {"residuals": [c.algebraic_residual, c.isometry_residual]})


def _candidate(params, tol) -> tuple:
    """(certificate, rejection) of the claim's candidate A on its space: the
    StructureValidationError of a rejected A, whose certificate is None when
    A failed before any sampling, or None for a valid A."""
    try:
        return validate_i_operator(params["space"], params["A"], tol=tol,
                                   samples=params["samples"],
                                   angles=params["angles"]).certificate, None
    except StructureValidationError as exc:
        return exc.certificate, exc


def _h_validate_structure(params, rng, tol):
    c, rejection = _candidate(params, tol)
    if rejection is None:
        return bounded("validate-structure", True,
                       {"algebraic": c.algebraic_residual, "isometry": c.isometry_residual})
    wit = {"error": str(rejection)}
    if c is not None and c.witness is not None:
        wit["witness"] = witness_to_dict(c.witness)
    return bounded("validate-structure", False, {}, witness=wit)


def _h_reject_structure(params, rng, tol):
    """Verified iff the candidate is rejected with a reproducible witness."""
    c, rejection = _candidate(params, tol)
    if rejection is None:
        return bounded("reject-structure", False, {},
                       witness={"error": "candidate unexpectedly valid"})
    wit = None
    reproduced = True
    if c is not None and c.witness is not None:
        redo = reevaluate_witness(params["space"], params["A"], c.witness)
        reproduced = abs(redo - c.isometry_residual) <= 1e-9
        wit = {**witness_to_dict(c.witness),
               "residual": c.isometry_residual, "reevaluated": redo}
    status = VERIFIED if reproduced else VIOLATED
    return VerificationReport(
        "reject-structure", status,
        residuals={"isometry": c.isometry_residual if c else float("nan")},
        witness=wit if status == VERIFIED else {"not_reproduced": wit},
        notes=["candidate rejected as required"])


def _drawn_groups(rng, count: int, draw: Callable) -> dict:
    """shape -> (indices, items) of a corpus of count items: draw(stream) is
    called count times in order, each giving (shape, item), and the items are
    grouped by shape in order of first appearance.  stream is one
    corpus.stream_reader of rng for the whole corpus: rng's lock is taken and
    the 32-bit stream bound once, and each draw reads its integers and
    pairings from stream and its normals from rng, in the order a loop over
    the items draws them."""
    groups: dict = {}
    with corpus_gen.stream_reader(rng) as stream:
        for i in range(count):
            shape, item = draw(stream)
            group = groups.get(shape)
            if group is None:
                group = groups[shape] = ([], [])
            group[0].append(i)
            group[1].append(item)
    return groups


def _corpus_verdict(rng, count: int, draw: Callable, check: Callable, residuals: _Residuals,
                    worst: dict, witness: Callable = lambda shape, item: None
                    ) -> VerificationReport:
    """The report of a corpus of count items, run a shape group at a time.
    The items are drawn and grouped by _drawn_groups, and check(shape, items)
    of each group gives (R, errors): a row of R per item in the group's order,
    its columns those of residuals, and the error of each item whose check
    raised (None elsewhere; () if none can).  An item fails where its check
    raised or where a value of its row is not within its column's bound.  At
    the first failing item in corpus order a loop over the items would stop:
    an error there is raised, groups whose items all lie beyond it are not
    checked, and the report is that item's, witness(shape, item) its witness.
    Else the corpus is verified with the worst residuals, worst naming the
    columns each is the largest of."""
    rows, stop = [], None  # stop: (corpus index, shape, item, row, error)
    for shape, (idx, items) in _drawn_groups(rng, count, draw).items():
        if stop is not None and idx[0] > stop[0]:
            break
        R, errors = check(shape, items)
        failing = [j for j, e in enumerate(errors) if e is not None]
        failing += np.flatnonzero(~np.all(R <= residuals.bounds, axis=1)).tolist()
        if failing and (stop is None or idx[min(failing)] < stop[0]):
            j = min(failing)
            stop = idx[j], shape, items[j], R[j], errors[j] if errors else None
        rows.append(R)
    if stop is not None:
        _, shape, item, row, error = stop
        if error is not None:
            raise error
        return residuals.report(row, witness(shape, item))
    R = np.concatenate(rows)
    return bounded(residuals.claim, True, {key: float(np.max(R[:, columns]))
                                           for key, columns in worst.items()},
                   residuals.tolerances)


def _h_prop1_roundtrip(params, rng, tol):
    def draw(stream):
        m = params["half_dims"][stream.below(len(params["half_dims"]))]
        return m, corpus_gen.complexification_draws(m, rng)

    def check(m, draws):
        c = corpus_gen._complexification_isomorphisms(*map(np.stack, zip(*draws)), tol=tol)
        Ts, conj_errors = _conjugations(c.S0, c.A, natural_i_operator_matrix(m),
                                        tol=HYP_TOL)
        w = _witnesses(c.A, Ts, c.gram, c.whitening, None, tol=tol)
        return w.residuals, first_errors(c.errors, conj_errors, w.errors)

    return _corpus_verdict(rng, params["count"], draw, check, ROUNDTRIP,
                           {key: j for j, key in enumerate(ROUNDTRIP.names)},
                           lambda m, _: {"half_dim": m})


def _h_squares(params, rng, tol):
    def draw(stream):
        space = params["dims"][stream.below(len(params["dims"]))]
        return space, stream.pairing(space.dim)

    def check(space, pairings):
        return _squares_residuals(space, corpus_gen._pairing_matrices(space.dim, pairings),
                                  [BY_CONSTRUCTION] * len(pairings), tol=tol)

    return _corpus_verdict(
        rng, params["count"], draw, check, _squares_check(tol),
        {"worst_respect": 0, "worst_inverse_composition": 1},
        lambda space, pairing: {"A": corpus_gen._pairing_matrices(
            space.dim, [pairing])[0].tolist()})


def _h_real_cartesian(params, rng, tol):
    max_dim = params["max_dim"]

    def draw(stream):
        m = 1 + stream.below(max_dim)
        n = 1 + stream.below(max_dim)
        return (m, n), rng.standard_normal((m, n))

    return _corpus_verdict(rng, params["count"], draw, lambda shape, Ts: (
        _real_cartesian_residuals(np.stack(Ts)), ()), REAL_CARTESIAN,
        {"worst_deviation": slice(None)}, lambda shape, T: {"shape": list(shape)})


def _draw_complex_op(rng, stream, spaces) -> tuple:
    """The draws of one random [T, A, B] between two of the spaces, A and B signed
    pairings: ((dom, cod), (A's pairing, B's pairing, the normal matrix T is
    projected from)), the choice of spaces and the pairings read from stream."""
    dom = spaces[stream.below(len(spaces))]
    cod = spaces[stream.below(len(spaces))]
    return (dom, cod), (stream.pairing(dom.dim), stream.pairing(cod.dim),
                        rng.standard_normal((cod.dim, dom.dim)))


def _complex_ops(shape: tuple, draws: list) -> tuple:
    """The stacks of T, A and B of the shape group (dom, cod) of _draw_complex_op
    draws: each T respects its signed pairings bitwise (corpus.respecting_part),
    and the claims measure the respect where they report it."""
    (dom, cod), (a, b, T0s) = shape, zip(*draws)
    As = corpus_gen._pairing_matrices(dom.dim, a)
    Bs = corpus_gen._pairing_matrices(cod.dim, b)
    return corpus_gen.respecting_part(np.stack(T0s), As, Bs), As, Bs


def _random_complex_corpus(rng, spaces, count) -> GroupedCorpus:
    """count random [T, A, B] between the spaces, drawn in order and stacked a
    shape group at a time, each signed pairing certified BY_CONSTRUCTION (as
    in corpus.random_exact_structure)."""
    drawn = _drawn_groups(rng, count, lambda stream: _draw_complex_op(rng, stream, spaces))
    return GroupedCorpus([(idx, *shape, *_complex_ops(shape, draws))
                          for shape, (idx, draws) in drawn.items()],
                         [(BY_CONSTRUCTION, BY_CONSTRUCTION)] * count)


def _h_complex_cartesian(params, rng, tol):
    def check(shape, draws):
        return _complex_cartesian_residuals(*_complex_ops(shape, draws), params["corrupt"]), ()

    return _corpus_verdict(
        rng, params["count"], lambda stream: _draw_complex_op(rng, stream, params["dims"]),
        check, _complex_cartesian_check(tol, params["corrupt"]), {"worst": slice(None)})


def _draw_real_op(rng, stream, spaces) -> tuple:
    """The draws of one random real T between two of the spaces: ((dom, cod),
    T of shape (cod.dim, dom.dim)), the choice of spaces read from stream."""
    dom = spaces[stream.below(len(spaces))]
    cod = spaces[stream.below(len(spaces))]
    return (dom, cod), rng.standard_normal((cod.dim, dom.dim))


def _h_theorem_real(params, rng, tol):
    drawn = _drawn_groups(rng, params["count"],
                          lambda stream: _draw_real_op(rng, stream, params["dims"]))
    return verify_theorem_real(params["oracle"], GroupedCorpus(
        [(idx, *shape, np.stack(Ts)) for shape, (idx, Ts) in drawn.items()]))


def _h_theorem_complex(params, rng, tol):
    corpus = _random_complex_corpus(rng, params["dims"], params["count"])
    return verify_theorem_complex(params["oracle"], corpus)


def _h_self_conjugacy(params, rng, tol):
    corpus = _random_complex_corpus(rng, params["dims"], params["count"])
    return audit_self_conjugacy(params["oracle"], corpus, tol=tol)


def _h_hs_doubling(params, rng, tol):
    bound = params["tol"]

    def check(spaces, Ts):
        (dom, cod), Ts = spaces, np.stack(Ts)
        base = ideal_norms(HILBERT_SCHMIDT, Ts, dom, cod)
        dom2, cod2 = natural_i_operator(dom).space, natural_i_operator(cod).space
        doubled = ideal_norms(HILBERT_SCHMIDT, block_diag2(Ts), dom2, cod2)
        return np.abs(doubled - math.sqrt(2.0) * base)[:, None], ()

    return _corpus_verdict(
        rng, params["count"], lambda stream: _draw_real_op(rng, stream, params["dims"]),
        check, _Residuals("hs-doubling", ("abs_dev",), np.array([bound]), {"abs": bound}),
        {"worst_abs_dev": 0}, lambda _, T: {"shape": list(T.shape)})


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
    return bounded("chain-mutations", not failures, {"failures": float(len(failures))},
                   witness=failures)


def _h_chain_search(params, rng, tol):
    source, target = params["from"], params["to"]
    rules = params["rules"]
    expect_found = params["expect_found"]
    chain = search_chain(source, target, params["depth"], rules=rules)
    found = chain is not None
    sound = not found or check_derivation(chain, start=source, end=target).ok
    return bounded("chain-search", found == expect_found and sound,
                   {"length": float(len(chain.steps) if found else -1)},
                   witness={"found": found, "expected": expect_found, "sound": sound},
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
              "samples": (SAMPLES, DEFAULT_SAMPLE_VECTORS),
              "angles": (ANGLES, DEFAULT_SAMPLE_ANGLES)}
_COMPLEX_CORPUS = {"oracle": (_named("oracle", "complex"), REQUIRED),
                   "dims": (EVEN_DIMS, [2, 4])}
_FIXTURE = {"fixture": (FIXTURE, "bundled")}
_FLIP = [[1.0, 0.0], [0.0, -1.0]]

# kind -> (handler, {parameter: (type, default or REQUIRED)}); a claim key
# outside _CLAIM_KEYS is a scenario error
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
                        {"count": (COUNT, 10), "half_dims": (HALF_DIMS, [1, 2, 3])}),
    "squares": (_h_squares, {"count": (COUNT, 10), "dims": (EVEN_DIMS, [2, 4, 6])}),
    "real-cartesian": (_h_real_cartesian,
                       {"count": (COUNT, 25), "max_dim": (MAX_DIM, 6)}),
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
# keys that older files give a kind and that its claims ignore
_LEGACY = {"search-structure": ("budget",),
           "natural-i-operator": ("samples", "angles", "seed")}
_CLAIM_KEYS = {kind: {"kind", "expect", *schema, *_LEGACY.get(kind, ())}
               for kind, (_, schema) in CLAIMS.items()}


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def _jsonify(obj):
    """obj with each non-finite float replaced by its repr: strict JSON has no
    NaN or infinity."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
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
    if unknown := unknown_keys(claim, _CLAIM_KEYS[kind]):
        raise ScenarioError(f"claim {claim_id!r} of kind {kind!r} has unknown key(s) {unknown}")
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
    for key, (ptype, default) in CLAIMS[kind][1].items():
        if ptype.reach is not None:  # a corpus of count items
            value, count = claim.get(key, default), params["count"]
            floats = count * (2 * ptype.reach(value)) ** 2
            if floats > MAX_FLOATS:
                raise ScenarioError(
                    f"claim {claim_id!r} parameters 'count' = {count} and {key!r} = {value!r} "
                    f"ask for a corpus of {floats} floats (count x (2 d)**2, d the largest "
                    f"dimension drawn), more than 2**{MAX_FLOATS.bit_length() - 1}")
    if kind in _SAMPLED:
        key, vectors = _SAMPLED[kind]
        n = params["space"].dim
        floats = params[key] * params["angles"] * vectors * n
        if floats > MAX_FLOATS:
            raise ScenarioError(
                f"claim {claim_id!r} parameters {key!r} = {params[key]} and 'angles' = "
                f"{params['angles']} ask for {floats} floats ({key} x angles x {vectors} x dim, "
                f"dim = {n} the dimension of its space), more than "
                f"2**{MAX_FLOATS.bit_length() - 1}")
    if "space" in params:  # a matrix acts on the claim's space
        n = params["space"].dim
        for key, (ptype, _) in CLAIMS[kind][1].items():
            if ptype is MATRIX and params[key].shape != (n, n):
                raise ScenarioError(f"claim {claim_id!r} parameter {key!r} must be "
                                    f"{n} x {n} for its space, got "
                                    f"{' x '.join(map(str, params[key].shape))}")
    return kind, expect, params


def run_claim(claim_id: str, parsed: tuple, seed: int, tol: Tolerances) -> dict:
    kind, expect, params = parsed
    rng = np.random.default_rng([seed, zlib.crc32(claim_id.encode())])
    try:
        report = CLAIMS[kind][0](params, rng, tol)
    except IstructError as exc:
        report = bounded(kind, False, {}, witness={"error": str(exc)})
    outcome = VERIFIED if report.status == expect else VIOLATED
    entry = {"id": claim_id, "kind": kind, "expected": expect,
             "outcome": outcome, "report": report.to_dict()}
    return _jsonify(entry)


def run_suite(scenario: dict, suite: str, *, seed=None, tol_alg=None,
              tol_iso=None) -> dict:
    _check_scenario(scenario)
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
    for key, value in tols.items():
        if not BOUND.ok(value, None):
            raise ScenarioError(f"tolerance {key!r} must be {BOUND.what}, got {value!r}")
    try:
        tol = Tolerances(**{k: float(v) for k, v in tols.items()})
    except TypeError as exc:
        raise ScenarioError(f"invalid tolerances {tols!r} ({exc})") from exc

    claims = scenario["claims"]
    resolved = {"space": _build_all(scenario, "space", space_from_dict),
                "oracle": _build_all(scenario, "oracle", oracle_from_dict)}
    parsed = {cid: parse_claim(cid, claim, resolved) for cid, claim in claims.items()}

    results = [run_claim(cid, parsed[cid], seed, tol) for cid in suites[suite]]

    return {"schema": SCHEMA_VERSION, "suite": suite, "seed": seed,
            "tolerances": {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol,
                           "tol_alg": tol.tol_alg, "tol_iso": tol.tol_iso},
            "caveats": CAVEATS,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "claims": results}


def write_report(report: dict, path: str) -> None:
    """Write a suite's report as indented JSON with sorted keys; a path that
    cannot be written is a ScenarioError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write report {path}: {exc}") from exc


def bundled_scenario_path() -> str:
    return str(resources.files("istruct.data") / "paper_all.json")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

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
            for name in sorted(load_scenario(args.scenario)["suites"]):
                print(name)
            return 0
        scenario = load_scenario(args.scenario)
        report = run_suite(scenario, args.suite, seed=args.seed,
                           tol_alg=args.tol_alg, tol_iso=args.tol_iso)
        write_report(report, args.out)
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
