import importlib.util
import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import istruct
from istruct import cli
from istruct.cli import (bundled_scenario_path, load_scenario, main,
                         run_suite)
from istruct.config import Tolerances
from istruct.corpus import (random_complexification_isomorphism,
                            random_exact_structure, random_respecting_operator)
from istruct.errors import IstructError, ScenarioError
from istruct.pelczynski import chain_to_dict, reference_chain
from istruct.report import VERIFIED, VIOLATED, VerificationReport
from istruct.theory import (build_complexification_witness, extract_conjugation,
                            verify_complex_cartesian_identities,
                            verify_real_cartesian_identities,
                            verify_squares_isomorphism)


@pytest.fixture(scope="module")
def scenario_path():
    return bundled_scenario_path()


def test_list_suites_sorted(scenario_path, capsys):
    assert main(["list-suites", scenario_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == sorted(lines)
    assert "paper-all" in lines
    for required in ("prop1-roundtrip", "squares", "ideal-transforms",
                     "pelczynski-chain"):
        assert required in lines


def test_run_suite_writes_report(scenario_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", scenario_path, "--suite", "pelczynski-chain",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["suite"] == "pelczynski-chain"
    assert report["caveats"]
    assert all(c["outcome"] == "verified" for c in report["claims"])


def test_run_suite_deterministic_modulo_timestamp(scenario_path):
    scenario = load_scenario(scenario_path)
    a = run_suite(scenario, "spaces")
    b = run_suite(scenario, "spaces")
    a.pop("timestamp"), b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_override_changes_report(scenario_path):
    scenario = load_scenario(scenario_path)
    a = run_suite(scenario, "spaces")
    b = run_suite(scenario, "spaces", seed=1)
    assert a["seed"] != b["seed"]


def test_unknown_suite_is_resolution_error(scenario_path, tmp_path, capsys):
    code = main(["run", scenario_path, "--suite", "no-such-suite",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_parse_error(tmp_path, capsys):
    code = main(["list-suites", str(tmp_path / "absent.json")])
    assert code == 2


def test_malformed_scenario_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": 99}")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))
    noseed = tmp_path / "noseed.json"
    noseed.write_text("{\"schema\": 1}")
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(str(noseed))


def test_failing_claim_sets_exit_code(tmp_path, capsys):
    scenario = {
        "schema": 1, "seed": 7,
        "claims": {"impossible": {"kind": "chain-search",
                                  "from": [["X", "+"]], "to": [["X", "-"]],
                                  "depth": 10, "rules": ["R3"],
                                  "expect_found": True}},
        "suites": {"only": ["impossible"]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--suite", "only", "--out", str(out)])
    assert code == 1
    assert "FAILED: impossible" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["claims"][0]["outcome"] == "violated"


def test_expected_violation_counts_as_success(tmp_path):
    scenario = {
        "schema": 1, "seed": 7,
        "claims": {"blocked": {"kind": "chain-search",
                               "from": [["X", "+"]], "to": [["X", "-"]],
                               "depth": 10, "rules": ["R3"],
                               "expect_found": False}},
        "suites": {"only": ["blocked"]},
    }
    report = run_suite(scenario, "only")
    assert report["claims"][0]["outcome"] == "verified"


def test_undecided_structure_search_is_inconclusive(tmp_path, capsys):
    l1 = {"dim": 2, "norm": {"kind": "lp", "p": 1.0}}
    l2 = {"dim": 2, "norm": {"kind": "lp", "p": 2.0}}
    scenario = {
        "schema": 1, "seed": 7,
        "spaces": {"l1+l2": {"dim": 4, "norm": {"kind": "sum", "left": l1,
                                                "right": l2}}},
        "claims": {"search": {"kind": "search-structure", "space": "l1+l2",
                              "budget": 300, "expect_found": False}},
        "suites": {"only": ["search"]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--suite", "only", "--out", str(out)])
    assert code == 1
    assert "FAILED: search" in capsys.readouterr().err
    claim = json.loads(out.read_text())["claims"][0]
    assert claim["outcome"] == "violated"
    assert claim["report"]["status"] == "inconclusive"
    assert claim["report"]["notes"] == ["tag: undecided"]


def test_paper_suite_runs_without_scipy(tmp_path):
    # scipy costs most of the import time; nothing at run time may load it
    code = (
        "import sys\n"
        "import istruct, istruct.cli\n"
        "assert istruct.cli.main(['run', istruct.cli.bundled_scenario_path(),\n"
        f"    '--suite', 'paper-all', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(istruct.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _exact_algebra_scenario(seed):
    """The benchmark's exact-algebra scenario, loaded from its file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "scenarios.py")
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exact_algebra(seed)


@pytest.mark.parametrize("suite", ["paper-all", "exact-algebra"])
def test_constructions_are_not_recertified(scenario_path, monkeypatch, suite):
    # structures exact by construction carry their certificate; certify runs
    # only on candidates (1,158 and 6,726 calls per pass when it re-checked
    # every construction)
    calls = []
    certify = istruct.structures.certify

    def counted(*args, **kwargs):
        calls.append(1)
        return certify(*args, **kwargs)

    monkeypatch.setattr(istruct.structures, "certify", counted)
    monkeypatch.setattr(cli, "certify", counted)
    scenario = (load_scenario(scenario_path) if suite == "paper-all"
                else _exact_algebra_scenario(7))
    report = run_suite(scenario, suite)
    assert all(c["outcome"] == "verified" for c in report["claims"])
    assert 0 < len(calls) < 100


def test_exact_algebra_decides_a_corpus_at_a_time(monkeypatch):
    # the Gram factors of an ideal norm are built once per (domain,
    # codomain) group of a corpus; one decision per operator made 2,000
    # whitenings per pass
    calls = []
    whitened = istruct.morphisms._whitened

    def counted(*args, **kwargs):
        calls.append(1)
        return whitened(*args, **kwargs)

    # wherever the kernel is reachable: a module may import it by name
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("istruct.")
                and getattr(module, "_whitened", None) is whitened):
            monkeypatch.setattr(module, "_whitened", counted)
    report = run_suite(_exact_algebra_scenario(7), "exact-algebra")
    assert all(c["outcome"] == "verified" for c in report["claims"])
    assert 0 < len(calls) < 500


# the witness of audit-c-a-sign in the exact-algebra scenario at seed 7, as
# one decision per operator found it
_A_SIGN_CONJUGATION = [0, 3, 4, 7, 10, 11, 12, 13, 14, 17, 18, 19, 21, 22, 23,
                       24, 26, 27, 28, 31, 32, 33, 37, 38, 39, 40, 41, 42, 43,
                       45, 46, 50, 51, 53, 55, 56]
_A_SIGN_SQUARE_BACKWARD = [7, 10, 12, 13, 17, 19, 23, 24, 26, 28, 31, 32, 38,
                           39, 45, 46, 51, 53, 55, 56]


def test_audit_witness_lists_the_same_indices():
    scenario = _exact_algebra_scenario(7)
    scenario["suites"] = {"audit": ["audit-c-a-sign"]}
    claim = run_suite(scenario, "audit")["claims"][0]
    assert claim["report"]["status"] == "violated"
    witness = claim["report"]["witness"]
    assert [w["index"] for w in witness["conjugation"]] == _A_SIGN_CONJUGATION
    assert [w["index"] for w in witness["square_backward"]] == _A_SIGN_SQUARE_BACKWARD
    assert witness["square_forward"] == []


@pytest.mark.parametrize("length", [2, 3, 4])
def test_choice_draws_the_stream_of_rng_choice(length):
    # the corpus handlers draw dimensions with cli._choice; if numpy changes
    # rng.choice, this fails instead of the reports changing unnoticed
    seq = [2 * k + 1 for k in range(length)]
    a, b = np.random.default_rng(2024), np.random.default_rng(2024)
    assert [int(a.choice(seq)) for _ in range(1000)] == \
        [cli._choice(b, seq) for _ in range(1000)]
    assert a.standard_normal() == b.standard_normal()


def _nan_in_hex_functionals(scenario):
    scenario["spaces"]["hex-2"]["norm"]["functionals"][2][0] = float("nan")


def _fractional_dim(scenario):
    scenario["spaces"]["plane-l3"]["dim"] = 2.7


def _claim_without_space(scenario):
    del scenario["claims"]["natural-l3"]["space"]


def _edit(path, value):
    """An edit that sets scenario[path[0]][path[1]]... to value."""
    def edit(scenario):
        target = scenario
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


@pytest.fixture
def claim_runs(monkeypatch):
    """The ids run_claim is called with, in order."""
    runs = []
    run_claim = cli.run_claim

    def counted(claim_id, *args, **kwargs):
        runs.append(claim_id)
        return run_claim(claim_id, *args, **kwargs)

    monkeypatch.setattr(cli, "run_claim", counted)
    return runs


def _chain_with(field, value):
    """The bundled chain as JSON data, with step 0's field set to value."""
    chain = chain_to_dict(reference_chain())
    chain["steps"][0][field] = value
    return chain


def _run_edited(scenario_path, tmp_path, edit, suite, *extra):
    """Run the suite on an edited copy of the bundled scenario; a chain
    object an edit puts in a claim's "fixture" is written to a file first."""
    with open(scenario_path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    scenario["suites"]["only-l3"] = ["natural-l3"]
    edit(scenario)
    for claim_id, claim in scenario["claims"].items():
        if isinstance(claim, dict) and isinstance(claim.get("fixture"), dict):
            chain_path = tmp_path / f"{claim_id}-chain.json"
            chain_path.write_text(json.dumps(claim["fixture"]))
            claim["fixture"] = str(chain_path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return main(["run", str(path), "--suite", suite,
                 "--out", str(tmp_path / "report.json"), *extra])


@pytest.mark.parametrize("edit, suite, words", [
    (_nan_in_hex_functionals, "pelczynski-chain", ["'hex-2'", "finite"]),
    (_fractional_dim, "pelczynski-chain", ["'plane-l3'", "integer", "2.7"]),
    (_claim_without_space, "only-l3", ["'natural-l3'", "parameter 'space'"]),
    (_edit(["seed"], "abc"), "pelczynski-chain", ["seed", "'abc'"]),
    (_edit(["tolerances", "tol_typo"], 1e-9), "pelczynski-chain", ["tol_typo"]),
    (_edit(["claims", "natural-l3"], "natural"), "only-l3", ["'natural-l3'", "object"]),
    (_edit(["claims", "chain-reference", "fixture"], "no/such/chain.json"),
     "pelczynski-chain", ["'chain-reference'", "no/such/chain.json"]),
    (_edit(["claims", "natural-l3", "expect"], "verifyed"), "only-l3",
     ["'natural-l3'", "'verifyed'"]),
    (_edit(["claims", "closed-form", "count"], "many"), "spaces",
     ["'closed-form'", "'count'", "'many'"]),
    (_edit(["claims", "closed-form", "dims"], [2, 3, 4]), "spaces",
     ["'closed-form'", "'dims'", "[2, 3, 4]"]),
    (_edit(["claims", "factorization", "A"], [[0.0, -1.0], [1.0]]), "pelczynski-chain",
     ["'factorization'", "'A'", "matrix"]),
    (_edit(["claims", "chain-search-blocked", "expect_found"], "no"), "pelczynski-chain",
     ["'chain-search-blocked'", "'expect_found'", "'no'"]),
    (_edit(["oracles", "c-all", "descriptor"], {"type": "nope"}), "pelczynski-chain",
     ["'c-all'", "'nope'"]),
    # parameters outside the range of their kind's schema
    (_edit(["claims", "chain-search-found", "from"], 5), "pelczynski-chain",
     ["'chain-search-found'", "'from'", "[label, sign]"]),
    (_edit(["claims", "closed-form", "dims"], [6, 2]), "spaces",
     ["'closed-form'", "'dims'", "[6, 2]"]),
    (_edit(["claims", "real-cartesian", "max_dim"], 0), "squares",
     ["'real-cartesian'", "'max_dim'", ">= 1"]),
    (_edit(["claims", "squares", "dims"], [3]), "squares",
     ["'squares'", "'dims'", "even"]),
    (_edit(["claims", "complex-cartesian", "dims"], [3]), "squares",
     ["'complex-cartesian'", "'dims'", "even"]),
    (_edit(["claims", "theorem-complex-all", "dims"], [3]), "ideal-transforms",
     ["'theorem-complex-all'", "'dims'", "even"]),
    (_edit(["claims", "audit-opnorm", "dims"], [3]), "ideal-transforms",
     ["'audit-opnorm'", "'dims'", "even"]),
    (_edit(["seed"], -5), "pelczynski-chain", ["seed", ">= 0", "-5"]),
    (_edit(["claims", "closed-form", "count"], -1), "spaces",
     ["'closed-form'", "'count'", ">= 1"]),
    (_edit(["claims", "prop1", "count"], 0), "prop1-roundtrip",
     ["'prop1'", "'count'", ">= 1"]),
    (_edit(["claims", "rotation-l1", "angles"], 1), "spaces",
     ["'rotation-l1'", "'angles'", ">= 3"]),
    (_edit(["claims", "rotation-l2", "angles"], 2), "spaces",
     ["'rotation-l2'", "'angles'", ">= 3"]),
    (_edit(["claims", "chain-search-blocked", "rules"], ["R99"]), "pelczynski-chain",
     ["'chain-search-blocked'", "'rules'", "R99"]),
    (_edit(["claims", "chain-search-blocked", "rules"], "R3"), "pelczynski-chain",
     ["'chain-search-blocked'", "'rules'", "list"]),
    (_edit(["claims", "chain-search-found", "from"], [["W", "+"]]), "pelczynski-chain",
     ["'chain-search-found'", "'from'", "'W'"]),
    (_edit(["claims", "chain-search-found", "depth"], -1), "pelczynski-chain",
     ["'chain-search-found'", "'depth'", ">= 0"]),
    (_edit(["claims", "prop1", "half_dims"], [0]), "prop1-roundtrip",
     ["'prop1'", "'half_dims'", ">= 1"]),
    (_edit(["claims", "hs-doubling", "dims"], [0]), "ideal-transforms",
     ["'hs-doubling'", "'dims'", ">= 1"]),
    (_edit(["claims", "theorem-real-hs", "dims"], [0]), "ideal-transforms",
     ["'theorem-real-hs'", "'dims'", ">= 1"]),
    (_edit(["claims", "chain-mutations", "fixture"], 5), "pelczynski-chain",
     ["'chain-mutations'", "'fixture'", "path"]),
    # chain files citing a rule or direction the checker does not have
    (_edit(["claims", "chain-reference", "fixture"], _chain_with("rule", "R99")),
     "pelczynski-chain", ["'chain-reference'", "'fixture'", "R99"]),
    (_edit(["claims", "chain-mutations", "fixture"], _chain_with("rule", "R99")),
     "pelczynski-chain", ["'chain-mutations'", "'fixture'", "R99"]),
    (_edit(["claims", "chain-reference", "fixture"], _chain_with("dir", "sideways")),
     "pelczynski-chain", ["'chain-reference'", "'fixture'", "sideways"]),
    (_edit(["claims", "chain-mutations", "fixture"], _chain_with("dir", "sideways")),
     "pelczynski-chain", ["'chain-mutations'", "'fixture'", "sideways"]),
    # the remaining parameterised kinds
    (_edit(["claims", "validate-cplx-l1", "angles"], 2), "structures",
     ["'validate-cplx-l1'", "'angles'", ">= 3"]),
    (_edit(["claims", "reject-l1-rotation", "samples"], 0), "structures",
     ["'reject-l1-rotation'", "'samples'", ">= 1"]),
    (_edit(["claims", "search-l2", "expect_found"], "no"), "structures",
     ["'search-l2'", "'expect_found'", "'no'"]),
    (_edit(["claims", "theorem-real-hs", "oracle"], "c-all"), "ideal-transforms",
     ["'theorem-real-hs'", "'oracle'", "real oracle", "'c-all'"]),
], ids=["nan-functional", "fractional-dim", "missing-parameter", "seed-not-integer",
        "unknown-tolerance", "claim-not-object", "missing-fixture", "expect-typo",
        "count-not-integer", "dims-not-a-pair", "ragged-matrix", "flag-not-boolean",
        "unknown-oracle-type", "from-not-expr", "dims-reversed", "max-dim-zero",
        "odd-squares-dim", "odd-cartesian-dim", "odd-theorem-complex-dim",
        "odd-audit-dim", "scenario-seed-negative", "count-negative", "count-zero",
        "rotation-angles-one", "rotation-angles-two",
        "unknown-rule", "rules-not-list", "bad-atom", "depth-negative",
        "half-dim-zero", "hs-dim-zero", "theorem-real-dim-zero", "fixture-not-path",
        "chain-unknown-rule", "mutations-unknown-rule", "chain-bad-direction",
        "mutations-bad-direction", "validate-angles-two", "reject-samples-zero", "search-flag-not-boolean",
        "wrong-oracle-kind"])
def test_bad_scenario_input_exits_2(scenario_path, tmp_path, capsys, claim_runs,
                                    edit, suite, words):
    assert _run_edited(scenario_path, tmp_path, edit, suite) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for word in words:
        assert word in err
    assert claim_runs == []


def test_bad_last_claim_exits_before_any_claim_runs(scenario_path, tmp_path, capsys,
                                                    claim_runs):
    def edit(scenario):
        assert scenario["suites"]["paper-all"][-1] == "validate-cplx-l1"
        scenario["claims"]["validate-cplx-l1"]["samples"] = 0

    assert _run_edited(scenario_path, tmp_path, edit, "paper-all") == 2
    assert "'validate-cplx-l1'" in capsys.readouterr().err
    assert claim_runs == []


def test_negative_seed_flag_exits_2(scenario_path, tmp_path, capsys, claim_runs):
    assert _run_edited(scenario_path, tmp_path, lambda s: None, "pelczynski-chain",
                       "--seed", "-3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "-3" in err
    assert claim_runs == []


# ---------------------------------------------------------------------------
# The corpus claims run a shape group at a time; the loops below run them one
# operator at a time through the public single-item functions, in the order
# of the draws, and must give the same report
# ---------------------------------------------------------------------------

def _loop_prop1(params, rng, tol):
    worst = {"involution": 0.0, "anticommutation": 0.0,
             "inverse_composition": 0.0, "norm_excess": 0.0}
    for _ in range(params["count"]):
        m = cli._choice(rng, params["half_dims"])
        s, iso = random_complexification_isomorphism(m, rng, tol=tol)
        T = extract_conjugation(iso, tol=1e-8)
        r = build_complexification_witness(s, T, tol=tol).report.residuals
        for key in worst:
            worst[key] = max(worst[key], r[key])
    ok = (worst["involution"] <= 1e-8 and worst["anticommutation"] <= 1e-8
          and worst["inverse_composition"] <= 1e-8
          and worst["norm_excess"] <= 1e-6)
    return VerificationReport(
        "complexification-roundtrip", VERIFIED if ok else VIOLATED,
        residuals=worst, witness=None if ok else dict(worst),
        tolerances={"residuals": 1e-8, "norm_slack": 1e-6})


def _loop_squares(params, rng, tol):
    worst_respect = worst_inv = 0.0
    for _ in range(params["count"]):
        s = random_exact_structure(cli._choice(rng, params["dims"]), rng)
        rep = verify_squares_isomorphism(s, tol=tol)
        if not rep.ok:
            return rep
        worst_respect = max(worst_respect, rep.residuals["respect"])
        worst_inv = max(worst_inv, rep.residuals["inverse_composition"])
    return VerificationReport(
        "square-space-isomorphism", VERIFIED,
        residuals={"worst_respect": worst_respect,
                   "worst_inverse_composition": worst_inv},
        tolerances={"respect": 0.0, "inverse": 1e-12})


def _loop_real_cartesian(params, rng, tol):
    worst = 0.0
    for _ in range(params["count"]):
        m = int(rng.integers(1, params["max_dim"] + 1))
        n = int(rng.integers(1, params["max_dim"] + 1))
        rep = verify_real_cartesian_identities(rng.standard_normal((m, n)))
        if not rep.ok:
            return rep
        worst = max(worst, max(rep.residuals.values()))
    return VerificationReport("real-cartesian-identities", VERIFIED,
                              residuals={"worst_deviation": worst},
                              tolerances={"deviation": 0.0})


def _loop_complex_cartesian(params, rng, tol):
    worst = 0.0
    for _ in range(params["count"]):
        dom = random_exact_structure(cli._choice(rng, params["dims"]), rng)
        cod = random_exact_structure(cli._choice(rng, params["dims"]), rng)
        op = random_respecting_operator(dom, cod, rng, tol=tol)
        rep = verify_complex_cartesian_identities(
            op, tol=tol, corrupt_annotation=params["corrupt"])
        if not rep.ok:
            return rep
        worst = max(worst, max(rep.residuals.values()))
    return VerificationReport("complex-cartesian-identities", VERIFIED,
                              residuals={"worst": worst},
                              tolerances={"respect": tol.tol_alg,
                                          "deviation": tol.abs_tol})


_LOOPS = {"prop1-roundtrip": _loop_prop1, "squares": _loop_squares,
          "real-cartesian": _loop_real_cartesian,
          "complex-cartesian": _loop_complex_cartesian}


def _loop_report(claim_id, parsed, seed, tol):
    """run_claim's report, with the claim run by its loop."""
    kind, _, params = parsed
    rng = np.random.default_rng([seed, zlib.crc32(claim_id.encode())])
    try:
        report = _LOOPS[kind](params, rng, tol)
    except IstructError as exc:
        report = VerificationReport(kind, VIOLATED, residuals={},
                                    witness={"error": str(exc)})
    return cli._jsonify(report.to_dict())


def _parsed_claims(scenario):
    """The scenario's claims of a migrated kind, parsed: {id: parsed}."""
    resolved = {"space": cli._build_all(scenario, "space", cli.space_from_dict),
                "oracle": cli._build_all(scenario, "oracle", cli.oracle_from_dict)}
    return {cid: cli.parse_claim(cid, claim, resolved)
            for cid, claim in scenario["claims"].items() if claim["kind"] in _LOOPS}


# tolerances that pass, and ones at which items fail at different checks
_LOOP_TOLERANCES = [Tolerances(), Tolerances(tol_alg=1e-20), Tolerances(tol_alg=5e-16),
                    Tolerances(tol_alg=1e-15), Tolerances(tol_iso=1e-20),
                    Tolerances(tol_alg=-1.0)]


@pytest.mark.parametrize("workload", ["paper-all", "exact-algebra"])
def test_shape_groups_report_what_the_loop_reports(scenario_path, workload):
    scenario = (load_scenario(scenario_path) if workload == "paper-all"
                else _exact_algebra_scenario(7))
    claims = _parsed_claims(scenario)
    assert sorted(kind for kind, _, _ in claims.values()) == sorted(
        ["complex-cartesian", "complex-cartesian", "prop1-roundtrip",
         "real-cartesian", "squares"])
    assert any(params["corrupt"] for _, _, params in claims.values()
               if "corrupt" in params)
    for seed in (1, 2, 3, 7, 101, 12345):
        for tol in _LOOP_TOLERANCES:
            for cid, parsed in claims.items():
                got = cli.run_claim(cid, parsed, seed, tol)["report"]
                assert got == _loop_report(cid, parsed, seed, tol), (cid, seed, tol)


def test_first_failing_prop1_item_gives_the_loop_message(scenario_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", scenario_path, "--suite", "prop1-roundtrip", "--out", str(out),
                 "--tol-alg", "1e-20"]) == 1
    claim = json.loads(out.read_text())["claims"][0]
    scenario = load_scenario(scenario_path)
    parsed = _parsed_claims(scenario)[claim["id"]]
    loop = _loop_report(claim["id"], parsed, scenario["seed"], Tolerances(tol_alg=1e-20))
    assert "algebraic residual" in loop["witness"]["error"]
    assert claim["report"]["witness"]["error"] == loop["witness"]["error"]


_KERNELS = [(istruct.corpus, "_complexification_isomorphisms"),
            (istruct.theory, "_conjugations"), (istruct.theory, "_witnesses"),
            (istruct.theory, "_squares_reports"),
            (istruct.theory, "_real_cartesian_reports"),
            (istruct.theory, "_complex_cartesian_reports")]


def test_corpus_claims_run_one_kernel_call_per_shape_group(monkeypatch):
    # one call per operator made 60 + 60 + 60 prop1, 60 squares, 300
    # real-cartesian and 110 complex-cartesian calls per exact-algebra pass
    calls = {name: 0 for _, name in _KERNELS}
    for module, name in _KERNELS:
        kernel = getattr(module, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        for m in (module, cli):
            if getattr(m, name, None) is kernel:
                monkeypatch.setattr(m, name, counted)
    report = run_suite(_exact_algebra_scenario(7), "exact-algebra")
    assert all(c["outcome"] == "verified" for c in report["claims"])
    # prop1: half_dims [1, 2, 3]; squares: dims [2, 4, 6]; real-cartesian:
    # (m, n) in [1, 6]^2; complex-cartesian: (dim_d, dim_c) in {2, 4}^2, twice
    assert 0 < calls["_complexification_isomorphisms"] <= 3
    assert 0 < calls["_conjugations"] <= 3
    assert 0 < calls["_witnesses"] <= 3
    assert 0 < calls["_squares_reports"] <= 3
    assert 0 < calls["_real_cartesian_reports"] <= 36
    assert 0 < calls["_complex_cartesian_reports"] <= 8


def test_oracle_claims_group_their_corpus_once(monkeypatch):
    # regrouping at every decision made 52 groupings per exact-algebra pass:
    # 2 per theorem-real, 6 per theorem-complex and 4 per self-conjugacy claim
    claims = []  # (kind, oracle, groupings, decisions) of each claim run
    groups, members = istruct.ideals._groups, istruct.ideals._members

    def counted_groups(rows):
        out = groups(rows)
        claims[-1][2].append(out)
        return out

    def counted_members(oracle, grouped):
        claims[-1][3].append((oracle, grouped))
        return members(oracle, grouped)

    def counted_run(claim_id, parsed, *args, **kwargs):
        kind, _, params = parsed
        claims.append((kind, params.get("oracle"), [], []))
        return run_claim(claim_id, parsed, *args, **kwargs)

    run_claim = cli.run_claim
    monkeypatch.setattr(cli, "run_claim", counted_run)
    monkeypatch.setattr(istruct.ideals, "_groups", counted_groups)
    for module in (istruct.ideals, istruct.theory):
        monkeypatch.setattr(module, "_members", counted_members)
    report = run_suite(_exact_algebra_scenario(7), "exact-algebra")
    assert all(c["outcome"] == "verified" for c in report["claims"])
    expected = {"theorem-real": 2, "theorem-complex": 1, "self-conjugacy": 1}
    for kind, _, groupings, _ in claims:
        assert len(groupings) == expected.get(kind, 0), kind
    assert sum(len(groupings) for _, _, groupings, _ in claims) == 20
    theorem_complex = [c for c in claims if c[0] == "theorem-complex"]
    assert len(theorem_complex) == 4
    for _, oracle, (grouped,), decisions in theorem_complex:
        # the direct, conjugate and unfolded decisions of one corpus, each
        # once, and one decision of the squares
        on_corpus = [o for o, g in decisions if g is grouped]
        assert len(on_corpus) == 3 and sum(o is oracle for o in on_corpus) == 1
        assert len(set(map(id, on_corpus))) == 3
        assert len(decisions) == 4
