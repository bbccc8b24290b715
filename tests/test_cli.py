import collections
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

import istruct
from istruct import cli
from istruct.cli import (bundled_scenario_path, load_scenario, main,
                         run_suite)
from istruct.config import MAX_FLOATS, Tolerances
from istruct.corpus import (random_complexification_isomorphism,
                            random_euclidean_space, random_exact_structure)
from istruct.errors import DescriptorError, IstructError, ScenarioError, WitnessError
from istruct.ideals import RealOperator, audit_self_conjugacy, oracle_from_dict
from istruct.morphisms import RespectingOperator
from istruct.pelczynski import chain_from_dict, reference_chain
from istruct.report import VERIFIED, VIOLATED, VerificationReport, bounded
from istruct.spaces import (complexification_norm, descriptor_from_dict, lp_space,
                            norm_batch, space_from_dict)
from istruct.structures import BY_CONSTRUCTION, ComplexStructure
from istruct.theory import (HYP_TOL, NORM_SLACK, ROUNDTRIP, build_complexification_witness,
                            extract_conjugation,
                            verify_complex_cartesian_identities,
                            verify_real_cartesian_identities,
                            verify_squares_isomorphism, verify_theorem_complex,
                            verify_theorem_real)

from helpers import (LINALG, chain_to_dict, choice, count_sampled_checks, linalg_calls,
                     random_respecting_matrix, repeats)


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


def test_claim_of_unknown_kind_exits_2(tmp_path, capsys):
    scenario = {"schema": 1, "seed": 7, "spaces": {},
                "claims": {"odd": {"kind": "no-such-kind"}}, "suites": {"only": ["odd"]}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path), "--suite", "only", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "unknown kind 'no-such-kind'" in capsys.readouterr().err


def test_missing_file_is_parse_error(tmp_path, capsys):
    code = main(["list-suites", str(tmp_path / "absent.json")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot load scenario")


def test_unknown_keys_exit_2_naming_every_key(scenario_path, tmp_path, capsys, claim_runs):
    # a misspelled parameter or top-level key would run the defaults, and
    # could verify
    for claim, extra, words in [
            ({"kind": "real-cartesian", "cuont": 1, "max_dimm": 1000}, {},
             ["claim 'rc'", "'cuont', 'max_dimm'"]),
            ({"kind": "real-cartesian"}, {"sutes": {}}, ["scenario", "'sutes'"])]:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"schema": 1, "seed": 7, "claims": {"rc": claim},
                                    "suites": {"only": ["rc"]}, **extra}))
        assert main(["run", str(path), "--suite", "only",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key(s)" in err
        for word in words:
            assert word in err
    assert claim_runs == []
    # the bundled scenario gives no claim a legacy key either
    for claim in load_scenario(scenario_path)["claims"].values():
        assert set(claim) <= {"kind", "expect"} | set(cli.CLAIMS[claim["kind"]][1])
    # the legacy keys of the non-Euclidean benchmark scenario are ignored
    scenario = _bench_scenarios().non_euclidean(7)
    resolved = {"space": cli._build_all(scenario, "space", cli.space_from_dict)}
    for claim_id, claim in scenario["claims"].items():
        cli.parse_claim(claim_id, claim, resolved)


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    for argv in (["list-suites", str(path)],
                 ["run", str(path), "--suite", "s", "--out", str(tmp_path / "r.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load scenario")


def test_unwritable_report_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": 1, "seed": 7, "claims": {
        "chain": {"kind": "chain-search", "from": [["X", "+"]], "to": [["X", "-"]],
                  "depth": 10, "rules": ["R3"], "expect_found": False}},
        "suites": {"only": ["chain"]}}))
    out = tmp_path / "absent" / "r.json"
    assert main(["run", str(path), "--suite", "only", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write report {out}")


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


def test_a_structure_search_that_finds_the_unexpected_is_violated():
    parsed = cli.parse_claim("s", {"kind": "search-structure", "space": "plane",
                                   "expect_found": False},
                             {"space": {"plane": lp_space(2, 2.0)}})
    report = cli.run_claim("s", parsed, 1, Tolerances())["report"]
    assert report["status"] == VIOLATED
    assert report["witness"] == {"found": True, "expected": False, "tag": "found"}


def test_mutations_of_a_chain_illegal_at_step_0_fail_there(tmp_path):
    # the chain fails at step 0, so a mutation of step j > 0 fails at step 0
    # too, not at j: each of them is a failure of the claim
    chain = chain_to_dict(reference_chain())
    chain["steps"][0]["expr"] = chain["start"]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    parsed = cli.parse_claim("m", {"kind": "chain-mutations", "fixture": str(path)}, {})
    report = cli.run_claim("m", parsed, 1, Tolerances())["report"]
    steps = len(chain["steps"])
    assert report["status"] == VIOLATED
    assert report["residuals"] == {"failures": float(steps - 1)}
    assert [f["index"] for f in report["witness"]] == list(range(1, steps))
    assert all(f["status"] == VIOLATED and f["witness"]["step"] == 0
               for f in report["witness"])


def test_a_violated_report_needs_a_witness():
    with pytest.raises(ValueError, match="witness"):
        VerificationReport("c", VIOLATED)


_J = [[0.0, -1.0], [1.0, 0.0]]
_I3 = np.eye(3).tolist()


@pytest.fixture(scope="module")
def structure_claims():
    """The reports of validate-structure and reject-structure on a rotation
    that is not an i-operator (plane-l1), one that is (plane-l2) and a
    candidate on an odd-dimensional space (l2^3), by claim id."""
    scenario = {
        "schema": 1, "seed": 3,
        "spaces": {"plane-l1": {"dim": 2, "norm": {"kind": "lp", "p": 1.0}},
                   "plane-l2": {"dim": 2, "norm": {"kind": "lp", "p": 2.0}},
                   "l2-3": {"dim": 3, "norm": {"kind": "lp", "p": 2.0}}},
        "claims": {
            "validate-l1": {"kind": "validate-structure", "space": "plane-l1", "A": _J},
            "validate-odd": {"kind": "validate-structure", "space": "l2-3", "A": _I3},
            "reject-l2": {"kind": "reject-structure", "space": "plane-l2", "A": _J},
            "reject-odd": {"kind": "reject-structure", "space": "l2-3", "A": _I3}},
        "suites": {"only": ["validate-l1", "validate-odd", "reject-l2", "reject-odd"]},
    }
    return {c["id"]: c["report"] for c in run_suite(scenario, "only")["claims"]}


def test_validate_structure_reports_the_sampled_witness(structure_claims):
    report = structure_claims["validate-l1"]
    assert report["status"] == VIOLATED and report["residuals"] == {}
    assert list(report["witness"]) == ["error", "witness"]
    assert report["witness"]["error"].startswith("isometry residual")
    assert list(report["witness"]["witness"]) == ["x", "alpha", "beta"]


def test_validate_structure_on_an_odd_dimension_has_no_witness(structure_claims):
    report = structure_claims["validate-odd"]
    assert report["status"] == VIOLATED and report["residuals"] == {}
    assert list(report["witness"]) == ["error"]
    assert report["witness"]["error"].startswith("odd dimension 3")


def test_reject_structure_of_a_valid_candidate_is_violated(structure_claims):
    report = structure_claims["reject-l2"]
    assert report["status"] == VIOLATED and report["residuals"] == {}
    assert report["witness"] == {"error": "candidate unexpectedly valid"}
    assert report["notes"] == []


def test_reject_structure_on_an_odd_dimension_is_verified(structure_claims):
    report = structure_claims["reject-odd"]
    assert report["status"] == VERIFIED
    assert report["residuals"] == {"isometry": "nan"}
    assert report["witness"] is None
    assert report["notes"] == ["candidate rejected as required"]


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


def _bench_scenarios():
    """The benchmark's scenario module, loaded from its file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "scenarios.py")
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exact_algebra_scenario(seed):
    return _bench_scenarios().exact_algebra(seed)


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


@pytest.mark.parametrize("suite, expected", [
    ("paper-all", 2), ("exact-algebra", 0), ("non-euclidean", 0)])
def test_only_candidates_are_sampled(scenario_path, monkeypatch, suite, expected):
    # a construction carries its certificate or is refused by a theorem, so
    # only candidates run the sampled check: paper-all's reject-l1-rotation
    # and reject-l1-skew
    sampled = count_sampled_checks(monkeypatch)
    scenario = (load_scenario(scenario_path) if suite == "paper-all"
                else getattr(_bench_scenarios(), suite.replace("-", "_"))(7))
    report = run_suite(scenario, suite, seed=7)
    assert all(c["outcome"] == "verified" for c in report["claims"])
    assert len(sampled) == expected


@pytest.mark.parametrize("suite", ["paper-all", "exact-algebra"])
def test_corpus_kernels_build_no_structure_per_item(scenario_path, monkeypatch, suite):
    # the corpus kernels take stacks of matrices and their certificates; a
    # warm pass built 562 and 2,904 ComplexStructure, and 10 and 60
    # RespectingOperator, when they took one structure per item
    scenario = (load_scenario(scenario_path) if suite == "paper-all"
                else _exact_algebra_scenario(7))
    run_suite(scenario, suite)  # builds what is cached on shared spaces
    made = collections.Counter()
    for cls in (ComplexStructure, RespectingOperator):
        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            made[name] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    report = run_suite(scenario, suite)
    assert all(c["outcome"] == "verified" for c in report["claims"])
    assert made["RespectingOperator"] == 0
    assert 0 < made["ComplexStructure"] <= len(report["claims"])


def test_exact_algebra_decides_a_corpus_at_a_time(monkeypatch):
    # Gram factors are built once per space (ideal norms read the factors
    # cached on the space) and once per shape group of witnesses; one
    # decision per operator made 2,000 whitenings per pass
    calls = []
    factors = istruct.spaces._whitening_factors

    def counted(*args, **kwargs):
        calls.append(1)
        return factors(*args, **kwargs)

    # wherever the helper is reachable: a module may import it by name
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("istruct.")
                and getattr(module, "_whitening_factors", None) is factors):
            monkeypatch.setattr(module, "_whitening_factors", counted)
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
    # the loop references draw their spaces with choice; if numpy changes
    # rng.choice, this fails instead of the references drifting unnoticed
    seq = [2 * k + 1 for k in range(length)]
    a, b = np.random.default_rng(2024), np.random.default_rng(2024)
    assert [int(a.choice(seq)) for _ in range(1000)] == \
        [choice(b, seq) for _ in range(1000)]
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


_LP = {"kind": "lp", "p": 1.0}


def _sum_tower(levels: int, leaf: dict) -> dict:
    """A space of `levels` nested sums, each of the one below and an l1 line."""
    space = {"dim": 1, "norm": leaf}
    for _ in range(levels):
        space = {"dim": space["dim"] + 1, "norm": {"kind": "sum", "left": space,
                                                   "right": {"dim": 1, "norm": _LP}}}
    return space


def _depth(value) -> int:
    """How deep arrays and objects nest in a JSON value (0 for a scalar)."""
    if not isinstance(value, (dict, list)):
        return 0
    return 1 + max(map(_depth, value.values() if isinstance(value, dict) else value),
                   default=0)


def _with_deep_space(space):
    """An edit that adds space as 'deep' and a natural-i-operator claim on it,
    the one claim of suite 'deep'."""
    def edit(scenario):
        scenario["spaces"]["deep"] = space
        scenario["claims"]["natural-deep"] = {"kind": "natural-i-operator", "space": "deep"}
        scenario["suites"]["deep"] = ["natural-deep"]
    return edit


@pytest.mark.parametrize("edit, suite, words", [
    (_nan_in_hex_functionals, "pelczynski-chain", ["'hex-2'", "finite"]),
    (_fractional_dim, "pelczynski-chain", ["'plane-l3'", "integer", "2.7"]),
    (_claim_without_space, "only-l3", ["'natural-l3'", "parameter 'space'"]),
    (_edit(["seed"], "abc"), "pelczynski-chain", ["seed", "'abc'"]),
    (_edit(["tolerances", "tol_typo"], 1e-9), "pelczynski-chain", ["tol_typo"]),
    (_edit(["tolerances"], "x"), "pelczynski-chain", ["'tolerances'", "object"]),
    (_edit(["tolerances"], 5), "pelczynski-chain", ["'tolerances'", "object"]),
    (_edit(["tolerances", "tol_alg"], "nan"), "pelczynski-chain",
     ["'tol_alg'", ">= 0", "'nan'"]),
    (_edit(["tolerances", "tol_iso"], -1), "pelczynski-chain", ["'tol_iso'", ">= 0", "-1"]),
    (_edit(["tolerances", "tol_alg"], True), "pelczynski-chain",
     ["'tol_alg'", ">= 0", "True"]),
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
    # a suite that is not a list of claim ids, run or elsewhere in the file
    (_edit(["suites", "bad"], 5), "bad", ["suite 'bad'", "list of claim ids"]),
    (_edit(["suites", "bad"], [["x"]]), "bad", ["suite 'bad'", "list of claim ids"]),
    (_edit(["suites", "bad"], "abc"), "pelczynski-chain",
     ["suite 'bad'", "list of claim ids", "'abc'"]),
    (_edit(["suites", "bad"], {"closed-form": 1}), "bad",
     ["suite 'bad'", "list of claim ids"]),
    (_edit(["oracles", "r-opnorm-2", "descriptor", "functional"], "operator_nrom"),
     "ideal-transforms", ["'r-opnorm-2'", "'operator_nrom'"]),
    # a suite that is not run names a claim the file does not have
    (_edit(["suites", "other"], ["no-such-claim"]), "ideal-transforms",
     ["suite 'other'", "unknown claim 'no-such-claim'"]),
    # oracle parameters out of range
    (_edit(["oracles", "r-opnorm-2", "descriptor", "bound"], "nan"), "ideal-transforms",
     ["'r-opnorm-2'", "bound", "'nan'"]),
    (_edit(["oracles", "r-opnorm-2", "descriptor", "bound"], -1), "ideal-transforms",
     ["'r-opnorm-2'", "bound", "-1"]),
    (_edit(["oracles", "r-opnorm-2", "descriptor", "bound"], True), "ideal-transforms",
     ["'r-opnorm-2'", "bound", "True"]),
    (_edit(["oracles", "r-rank-all", "descriptor", "r"], -2.7), "ideal-transforms",
     ["'r-rank-all'", "r must", "-2.7"]),
    (_edit(["oracles", "r-rank-all", "descriptor", "r"], -1), "ideal-transforms",
     ["'r-rank-all'", "r must", "-1"]),
    (_edit(["oracles", "r-rank-all", "descriptor", "r"], 2.5), "ideal-transforms",
     ["'r-rank-all'", "r must", "2.5"]),
    # matrix parameters hold finite JSON numbers only
    (_edit(["claims", "validate-l2-nan"], {"kind": "validate-structure", "space": "plane-l2",
                                           "A": [[0, -1], [1, float("nan")]]}),
     "pelczynski-chain", ["'validate-l2-nan'", "'A'", "finite", "nan"]),
    (_edit(["claims", "factorization", "R"], [[float("nan"), 0], [0, -1]]),
     "pelczynski-chain", ["'factorization'", "'R'", "nan"]),
    (_edit(["claims", "factorization", "S"], [[float("inf"), 0], [0, -1]]),
     "pelczynski-chain", ["'factorization'", "'S'", "inf"]),
    (_edit(["claims", "reject-l1-rotation", "A"], [["0", "-1"], ["1", "0"]]),
     "pelczynski-chain", ["'reject-l1-rotation'", "'A'", "'-1'"]),
    (_edit(["claims", "reject-l1-skew", "A"], [[False, True], [True, False]]),
     "pelczynski-chain", ["'reject-l1-skew'", "'A'", "True"]),
    # a matrix parameter is dim x dim for the claim's space
    (_edit(["claims", "validate-l2-wide"], {"kind": "validate-structure",
                                            "space": "plane-l2", "A": [[1, 0, 0]]}),
     "pelczynski-chain", ["'validate-l2-wide'", "'A'", "2 x 2", "1 x 3"]),
    (_edit(["claims", "reject-l1-rotation", "A"], [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
     "pelczynski-chain", ["'reject-l1-rotation'", "'A'", "2 x 2", "3 x 3"]),
    (_edit(["claims", "factorization", "R"], [[1]]), "pelczynski-chain",
     ["'factorization'", "'R'", "2 x 2", "1 x 1"]),
    (_edit(["claims", "factorization", "S"], [[1, 0], [0, -1], [0, 0]]), "pelczynski-chain",
     ["'factorization'", "'S'", "2 x 2", "3 x 2"]),
    (_edit(["claims", "factorization", "A"], [[0, -1, 0, 0], [1, 0, 0, 0]]),
     "pelczynski-chain", ["'factorization'", "'A'", "2 x 2", "2 x 4"]),
    # descriptor numbers are JSON numbers, not strings or booleans
    (_edit(["spaces", "plane-l3", "norm", "p"], "1.5"), "pelczynski-chain",
     ["'plane-l3'", "p:", "'1.5'", "JSON number"]),
    (_edit(["spaces", "plane-l3", "norm", "p"], True), "pelczynski-chain",
     ["'plane-l3'", "p:", "True", "JSON number"]),
    (_edit(["spaces", "wl1-2", "norm", "p"], "2"), "pelczynski-chain",
     ["'wl1-2'", "p:", "'2'", "JSON number"]),
    (_edit(["spaces", "wl1-2", "norm", "weights"], ["1", "2"]), "pelczynski-chain",
     ["'wl1-2'", "weights:", "'1'", "JSON number"]),
    (_edit(["spaces", "wl1-2", "norm", "weights"], [1.0, True]), "pelczynski-chain",
     ["'wl1-2'", "weights:", "True", "JSON number"]),
    (_edit(["spaces", "quad-2", "norm", "G"], [[True, False], [False, True]]),
     "pelczynski-chain", ["'quad-2'", "G:", "True", "JSON number"]),
    (_edit(["spaces", "hex-2", "norm", "functionals"], [[1, 0], [0, "1"], [1, 1]]),
     "pelczynski-chain", ["'hex-2'", "functionals:", "'1'", "JSON number"]),
    (_edit(["spaces", "sub-l1"], {"dim": 1, "norm": {
        "kind": "sub", "ambient": {"dim": 2, "norm": {"kind": "lp", "p": 1.0}},
        "basis": [["1"], [0]]}}),
     "pelczynski-chain", ["'sub-l1'", "basis:", "'1'", "JSON number"]),
    # a missing key is named, not a bare KeyError
    (_edit(["spaces", "plane-l3", "norm"], {"kind": "lp"}), "pelczynski-chain",
     ["'plane-l3'", "DescriptorError", "lacks the key 'p'"]),
    (_edit(["oracles", "r-rank-all", "descriptor"], {"type": "rank_threshold"}),
     "ideal-transforms", ["'r-rank-all'", "DescriptorError", "lacks the key 'r'"]),
    # a corpus of count x (2 d)**2 > 2**24 floats is refused before it is
    # drawn; this also keeps a corpus draw below n <= 2**32 (corpus._below)
    (_edit(["claims", "real-cartesian", "max_dim"], 2 ** 32 + 1), "squares",
     ["'real-cartesian'", "'max_dim'", "2**24", "4294967297"]),
    (_edit(["claims", "closed-form", "dims"], [1, 2 ** 32 + 1]), "spaces",
     ["'closed-form'", "'dims'", "2**24", "4294967297"]),
    (_edit(["claims", "real-cartesian", "max_dim"], 2 ** 32), "squares",
     ["'real-cartesian'", "'count' = 25", "'max_dim' = 4294967296", "2**24"]),
    (_edit(["claims", "theorem-real-opnorm", "dims"], [100000]), "ideal-transforms",
     ["'theorem-real-opnorm'", "'count' = 30", "'dims' = [100000]", "2**24"]),
    (_edit(["claims", "closed-form", "dims"], [2, 1000]), "spaces",
     ["'closed-form'", "'count' = 40", "'dims' = [2, 1000]", "2**24"]),
    # so is a sampled claim of more than 2**24 floats (29.8 and 14.9 GiB asked)
    (_edit(["claims", "rotation-l1", "count"], 10 ** 9), "spaces",
     ["'rotation-l1'", "'count' = 1000000000", "'angles' = 16", "2**24"]),
    (_edit(["claims", "reject-l1-skew", "samples"], 10 ** 9), "structures",
     ["'reject-l1-skew'", "'samples' = 1000000000", "'angles' = 16", "2**24"]),
    # a misspelled descriptor key would build the default ("direction" for
    # "dir" would run the step forward)
    (_edit(["spaces", "plane-l1", "norm", "wieghts"], [1, 2]), "pelczynski-chain",
     ["'plane-l1'", "lp norm has unknown key(s) 'wieghts'"]),
    (_edit(["spaces", "plane-l1", "extra"], 1), "pelczynski-chain",
     ["'plane-l1'", "a space has unknown key(s) 'extra'"]),
    (_edit(["oracles", "r-rank-all", "descriptor", "rr"], 3), "ideal-transforms",
     ["'r-rank-all'", "'rank_threshold' has unknown key(s) 'rr'"]),
    (_edit(["oracles", "r-rank-all", "weight"], 3), "ideal-transforms",
     ["'r-rank-all'", "an oracle has unknown key(s) 'weight'"]),
    (_edit(["claims", "chain-reference", "fixture"], _chain_with("direction", "reverse")),
     "pelczynski-chain", ["'chain-reference'", "a chain step has unknown key(s) 'direction'"]),
    (_edit(["claims", "chain-reference", "fixture"], {**chain_to_dict(reference_chain()),
                                                      "end": [], "name": "x"}),
     "pelczynski-chain", ["'chain-reference'", "a chain has unknown key(s) 'end', 'name'"]),
    # beyond the recursion of space_from_dict, which 200 levels pass
    (_with_deep_space(_sum_tower(250, _LP)), "deep", ["nests arrays and objects", "64"]),
], ids=["nan-functional", "fractional-dim", "missing-parameter", "seed-not-integer",
        "unknown-tolerance", "tolerances-string", "tolerances-number",
        "tolerance-string-nan", "tolerance-negative", "tolerance-boolean",
        "claim-not-object", "missing-fixture", "expect-typo",
        "count-not-integer", "dims-not-a-pair", "ragged-matrix", "flag-not-boolean",
        "unknown-oracle-type", "from-not-expr", "dims-reversed", "max-dim-zero",
        "odd-squares-dim", "odd-cartesian-dim", "odd-theorem-complex-dim",
        "odd-audit-dim", "scenario-seed-negative", "count-negative", "count-zero",
        "rotation-angles-one", "rotation-angles-two",
        "unknown-rule", "rules-not-list", "bad-atom", "depth-negative",
        "half-dim-zero", "hs-dim-zero", "theorem-real-dim-zero", "fixture-not-path",
        "chain-unknown-rule", "mutations-unknown-rule", "chain-bad-direction",
        "mutations-bad-direction", "validate-angles-two", "reject-samples-zero", "search-flag-not-boolean",
        "wrong-oracle-kind", "suite-number", "suite-nested-list", "suite-string",
        "suite-object", "functional-typo", "suite-unknown-claim", "bound-nan",
        "bound-negative", "bound-boolean", "r-negative-fraction", "r-negative",
        "r-fraction", "matrix-nan", "factorization-r-nan", "factorization-s-inf",
        "matrix-strings", "matrix-booleans", "validate-matrix-size", "reject-matrix-size",
        "factorization-r-size", "factorization-s-size", "factorization-a-size", "p-string", "p-boolean", "wlp-p-string",
        "weights-strings", "weights-boolean", "gram-booleans", "functionals-string",
        "basis-string", "norm-missing-key", "oracle-missing-key",
        "max-dim-beyond-2-32", "dims-span-beyond-2-32", "max-dim-2-32",
        "theorem-real-dim-100000", "closed-form-hi-1000", "rotation-count-10-9",
        "reject-samples-10-9", "norm-unknown-key",
        "space-unknown-key", "descriptor-unknown-key", "oracle-unknown-key",
        "step-unknown-key", "chain-unknown-keys", "space-of-250-sums"])
def test_bad_scenario_input_exits_2(scenario_path, tmp_path, capsys, claim_runs,
                                    edit, suite, words):
    assert _run_edited(scenario_path, tmp_path, edit, suite) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for word in words:
        assert word in err
    assert claim_runs == []


@pytest.mark.parametrize("claim, key, at_bound, beyond", [
    ({"kind": "real-cartesian"}, "max_dim", 2048, 2049),
    ({"kind": "euclidean-closed-form"}, "dims", [1, 2048], [1, 2049]),
    ({"kind": "prop1-roundtrip"}, "half_dims", [1, 1024], [1025, 1]),
    ({"kind": "squares"}, "dims", [2048, 2], [2, 2050]),
], ids=["max-dim", "closed-form-hi", "half-dims-doubled", "dims"])
def test_a_corpus_of_2_24_floats_parses_and_a_larger_one_does_not(claim, key, at_bound,
                                                                    beyond):
    # count x (2 d)**2 with d the largest dimension drawn; nothing is drawn
    assert 1 * (2 * 2048) ** 2 == MAX_FLOATS
    cli.parse_claim("c", {**claim, "count": 1, key: at_bound}, {})
    for count, value in ((2, at_bound), (1, beyond)):
        with pytest.raises(ScenarioError, match=(
                f"claim 'c' parameters 'count' = {count} and '{key}' = "
                rf"{re.escape(repr(value))} ask for a corpus of \d+ floats")):
            cli.parse_claim("c", {**claim, "count": count, key: value}, {})


@pytest.mark.parametrize("claim, key, at_bound", [
    ({"kind": "rotation-invariance", "angles": 16}, "count", 2 ** 18),
    ({"kind": "validate-structure", "A": [[0, -1], [1, 0]], "angles": 32}, "samples", 2 ** 18),
    ({"kind": "reject-structure", "A": [[0, -1], [1, 0]], "angles": 32}, "samples", 2 ** 18),
], ids=["rotation-count", "validate-samples", "reject-samples"])
def test_a_sampled_claim_of_2_24_floats_parses_and_a_larger_one_does_not(claim, key,
                                                                         at_bound):
    # count x angles x 2 x dim for rotation-invariance, samples x angles x dim
    # for the structure claims, here on a plane; nothing is sampled
    resolved = {"space": {"plane": lp_space(2, 2.0)}}
    claim = {**claim, "space": "plane"}
    cli.parse_claim("c", {**claim, key: at_bound}, resolved)
    with pytest.raises(ScenarioError, match=(
            f"claim 'c' parameters '{key}' = {at_bound + 1} and 'angles' = "
            rf"{claim['angles']} ask for \d+ floats .* more than 2\*\*24")):
        cli.parse_claim("c", {**claim, key: at_bound + 1}, resolved)


def test_rotation_invariance_on_a_large_cube_builds_no_break_rows():
    # l_inf^1200's one part gives its averaged norm exactly; its 1200^2
    # crossing rows, which a kink path would need, are not built
    big = lp_space(1200, math.inf)
    parsed = cli.parse_claim("r", {"kind": "rotation-invariance", "space": "big",
                                   "count": 1, "angles": 3}, {"space": {"big": big}})
    report = cli.run_claim("r", parsed, 1, Tolerances())["report"]
    assert report["status"] == VERIFIED
    assert report["residuals"]["worst_abs_dev"] <= 1e-8
    assert "_breaks" not in vars(big)


@pytest.mark.parametrize("read, obj, error, words", [
    (space_from_dict, {}, DescriptorError, ["space", "'dim'"]),
    (space_from_dict, {"dim": 2}, DescriptorError, ["space", "'norm'"]),
    (space_from_dict, [2, _LP], DescriptorError, ["space", "JSON object", "list"]),
    (space_from_dict, {"dim": 2, "norm": {"kind": "lp"}}, DescriptorError, ["lp norm", "'p'"]),
    (space_from_dict, {"dim": 2, "norm": "lp"}, DescriptorError, ["norm", "JSON object"]),
    (space_from_dict, {"dim": 4, "norm": {"kind": "sum", "left": {"dim": 2, "norm": _LP}}},
     DescriptorError, ["sum norm", "'right'"]),
    (descriptor_from_dict, {"p": 1.0}, DescriptorError, ["norm", "'kind'"]),
    (descriptor_from_dict, {"kind": "poly", "functionals": [[1, 0], [0]]}, DescriptorError,
     ["functionals:", "[1, 0]", "JSON number"]),
    (oracle_from_dict, {"kind": "real", "descriptor": {"type": "rank_threshold"}},
     DescriptorError, ["'rank_threshold'", "'r'"]),
    (oracle_from_dict, {"kind": "real"}, DescriptorError, ["oracle", "'descriptor'"]),
    (oracle_from_dict, {"kind": "real", "descriptor": {}}, DescriptorError,
     ["oracle descriptor", "'type'"]),
    (oracle_from_dict, {"descriptor": {"type": "all"}}, DescriptorError, ["oracle", "'kind'"]),
    (oracle_from_dict, "all", DescriptorError, ["oracle", "JSON object", "str"]),
    (oracle_from_dict, {"kind": ["real"], "descriptor": {"type": "predicate", "label": "nonzero"}},
     DescriptorError, ["oracle kind", "['real']"]),
    (oracle_from_dict, {"kind": "real", "descriptor": {"type": "predicate", "label": ["nonzero"]}},
     DescriptorError, ["predicate", "'label'", "['nonzero']"]),
    (chain_from_dict, {"start": [["X", "+"]]}, IstructError, ["chain", "'steps'"]),
    (chain_from_dict, {"steps": []}, IstructError, ["chain", "'start'"]),
    (chain_from_dict, {"steps": 3, "start": [["X", "+"]]}, IstructError, ["steps", "list"]),
    (chain_from_dict, {"steps": [{"rule": "R3"}], "start": [["X", "+"]]}, IstructError,
     ["chain step", "'expr'"]),
    (chain_from_dict, {"steps": [{"expr": [["X", "+"]]}], "start": [["X", "+"]]},
     IstructError, ["chain step", "'rule'"]),
    (chain_from_dict, {"steps": ["R3"], "start": [["X", "+"]]}, IstructError,
     ["chain step", "JSON object"]),
    (chain_from_dict, {"steps": [], "start": "X+"}, IstructError, ["[label, sign]"]),
    (chain_from_dict, {"steps": [{"expr": [["X", "+"]], "rule": ["R3"]}],
                       "start": [["X", "+"]]}, IstructError, ["unknown rule id"]),
    (chain_from_dict, None, IstructError, ["chain", "JSON object"]),
], ids=["space-no-dim", "space-no-norm", "space-list", "lp-no-p", "norm-string",
        "sum-no-right", "norm-no-kind", "ragged-functionals", "rank-no-r", "oracle-no-descriptor",
        "descriptor-no-type", "oracle-no-kind", "oracle-string", "oracle-kind-list",
        "predicate-label-list",
        "chain-no-steps", "chain-no-start", "steps-number", "step-no-expr",
        "step-no-rule", "step-string", "start-string", "rule-list", "chain-null"])
def test_json_readers_raise_typed_errors_naming_the_key(read, obj, error, words):
    with pytest.raises(error) as exc:
        read(obj)
    for word in words:
        assert word in str(exc.value)


def test_scenario_at_the_nesting_bound_runs(scenario_path, tmp_path, capsys):
    edit = _with_deep_space(_sum_tower(30, _LP))
    scenario = load_scenario(scenario_path)
    edit(scenario)
    assert _depth(scenario) == cli.MAX_DEPTH
    assert _run_edited(scenario_path, tmp_path, edit, "deep") == 0
    claim = json.loads((tmp_path / "report.json").read_text())["claims"][0]
    assert claim["outcome"] == VERIFIED and claim["report"]["residuals"] == {
        "algebraic": 0.0, "isometry": 0.0}
    # a one-element weight list under the same tower is one level too deep
    edit = _with_deep_space(_sum_tower(30, {"kind": "wlp", "p": 1.0, "weights": [1.0]}))
    edit(scenario)
    assert _depth(scenario) == cli.MAX_DEPTH + 1
    assert _run_edited(scenario_path, tmp_path, edit, "deep") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: scenario nests arrays and objects more than {cli.MAX_DEPTH} deep"]


def test_json_file_nested_too_deep_to_decode_exits_2(scenario_path, tmp_path, capsys,
                                                     claim_runs):
    # arrays nested deeper than the JSON decoder's recursion, as a scenario
    # file and as a chain file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", str(deep), "--suite", "s", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot load scenario {deep}")
    assert "recursion" in err[0]
    assert _run_edited(scenario_path, tmp_path,
                       _edit(["claims", "chain-reference", "fixture"], str(deep)),
                       "pelczynski-chain") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: claim 'chain-reference'")
    assert f"cannot load chain {deep}" in err[0] and "recursion" in err[0]
    assert claim_runs == []


def _natural_suite(scenario):
    scenario["suites"]["natural"] = [cid for cid, claim in scenario["claims"].items()
                                     if claim["kind"] == "natural-i-operator"]


def test_natural_i_operator_reports_the_tighter_run_tolerances(scenario_path, tmp_path):
    for flags, tolerances in [((), {"algebraic": 1e-12, "isometry": 1e-8}),
                              (("--tol-iso", "1e-20"), {"algebraic": 1e-12, "isometry": 1e-20}),
                              (("--tol-alg", "1e-20"), {"algebraic": 1e-20, "isometry": 1e-8})]:
        assert _run_edited(scenario_path, tmp_path, _natural_suite, "natural", *flags) == 0
        claims = json.loads((tmp_path / "report.json").read_text())["claims"]
        assert len(claims) == 7
        for claim in claims:
            assert claim["report"]["tolerances"] == tolerances, (flags, claim["id"])
            assert claim["report"]["status"] == VERIFIED


@pytest.mark.parametrize("edit, words", [
    (_edit(["tolerances"], "x"), ["'tolerances'", "object"]),
    (lambda scenario: scenario.pop("seed"), ["seed"]),
], ids=["tolerances-string", "no-seed"])
def test_run_suite_checks_a_scenario_it_did_not_load(scenario_path, edit, words):
    with open(scenario_path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    edit(scenario)
    with pytest.raises(ScenarioError) as exc:
        run_suite(scenario, "pelczynski-chain")
    for word in words:
        assert word in str(exc.value)


def test_bad_last_claim_exits_before_any_claim_runs(scenario_path, tmp_path, capsys,
                                                    claim_runs):
    def edit(scenario):
        assert scenario["suites"]["paper-all"][-1] == "validate-cplx-l1"
        scenario["claims"]["validate-cplx-l1"]["samples"] = 0

    assert _run_edited(scenario_path, tmp_path, edit, "paper-all") == 2
    assert "'validate-cplx-l1'" in capsys.readouterr().err
    assert claim_runs == []


def test_list_suites_rejects_a_suite_naming_an_unknown_claim(scenario_path, tmp_path,
                                                            capsys):
    with open(scenario_path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    scenario["suites"]["other"] = ["no-such-claim"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["list-suites", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "suite 'other' references unknown claim 'no-such-claim'" in captured.err


def test_negative_seed_flag_exits_2(scenario_path, tmp_path, capsys, claim_runs):
    assert _run_edited(scenario_path, tmp_path, lambda s: None, "pelczynski-chain",
                       "--seed", "-3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "-3" in err
    assert claim_runs == []


@pytest.mark.parametrize("flag, value, key", [("--tol-alg", "nan", "'tol_alg'"),
                                              ("--tol-iso", "-1", "'tol_iso'"),
                                              ("--tol-alg", "inf", "'tol_alg'")])
def test_bad_tolerance_flag_exits_2(scenario_path, tmp_path, capsys, claim_runs,
                                    flag, value, key):
    # a NaN tol_alg would pass every residual check, the planted violations too
    assert _run_edited(scenario_path, tmp_path, lambda s: None, "paper-all",
                       flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and value in err
    assert claim_runs == []


# ---------------------------------------------------------------------------
# The corpus claims run a shape group at a time; the loops below run them one
# operator at a time through the public single-item functions, in the order
# of the draws, and must give the same report
# ---------------------------------------------------------------------------

def _loop_prop1(params, rng, tol):
    worst = {"involution": 0.0, "anticommutation": 0.0,
             "inverse_composition": 0.0, "norm_excess": 0.0}
    tolerances = {"residuals": HYP_TOL, "norm_slack": NORM_SLACK}
    for _ in range(params["count"]):
        m = choice(rng, params["half_dims"])
        s, iso = random_complexification_isomorphism(m, rng, tol=tol)
        T = extract_conjugation(iso, tol=HYP_TOL)
        r = build_complexification_witness(s, T, tol=tol).report.residuals
        failed = {key: v for key, v in r.items()
                  if not v <= (NORM_SLACK if key == "norm_excess" else HYP_TOL)}
        if failed:
            return VerificationReport("complexification-roundtrip", VIOLATED, residuals=r,
                                      witness={"failed": failed}, tolerances=tolerances)
        for key in worst:
            worst[key] = max(worst[key], r[key])
    return VerificationReport("complexification-roundtrip", VERIFIED, residuals=worst,
                              tolerances=tolerances)


def _loop_squares(params, rng, tol):
    worst_respect = worst_inv = 0.0
    for _ in range(params["count"]):
        s = random_exact_structure(choice(rng, params["dims"]).dim, rng)
        rep = verify_squares_isomorphism(s, tol=tol)
        if not rep.ok:
            return rep
        worst_respect = max(worst_respect, rep.residuals["respect"])
        worst_inv = max(worst_inv, rep.residuals["inverse_composition"])
    return VerificationReport(
        "square-space-isomorphism", VERIFIED,
        residuals={"worst_respect": worst_respect,
                   "worst_inverse_composition": worst_inv},
        tolerances={"respect": tol.tol_alg, "inverse": 1e-12})


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


def _loop_respecting_op(params, rng):
    """One random [T, A, B], drawn in the CLI's order: both spaces, both
    structures, then T.  Like the CLI it checks no respect when it draws: T
    respects bitwise, and each claim measures the respect where it reports it."""
    spaces = [choice(rng, params["dims"]) for _ in range(2)]
    dom, cod = (random_exact_structure(space.dim, rng) for space in spaces)
    return RespectingOperator(dom, cod, random_respecting_matrix(dom.A, cod.A, rng), 0.0)


def _loop_complex_cartesian(params, rng, tol):
    worst = 0.0
    for _ in range(params["count"]):
        rep = verify_complex_cartesian_identities(
            _loop_respecting_op(params, rng), tol=tol,
            corrupt_annotation=params["corrupt"])
        if not rep.ok:
            return rep
        worst = max(worst, max(rep.residuals.values()))
    return VerificationReport("complex-cartesian-identities", VERIFIED,
                              residuals={"worst": worst},
                              tolerances={"respect": tol.tol_alg,
                                          "deviation": tol.abs_tol})


def _loop_theorem_real(params, rng, tol):
    corpus = []
    for _ in range(params["count"]):
        dom = choice(rng, params["dims"])
        cod = choice(rng, params["dims"])
        corpus.append(RealOperator(rng.standard_normal((cod.dim, dom.dim)),
                                   lp_space(dom.dim, 2.0), lp_space(cod.dim, 2.0)))
    return verify_theorem_real(params["oracle"], corpus)


def _loop_theorem_complex(params, rng, tol):
    corpus = [_loop_respecting_op(params, rng) for _ in range(params["count"])]
    return verify_theorem_complex(params["oracle"], corpus)


def _loop_self_conjugacy(params, rng, tol):
    corpus = [_loop_respecting_op(params, rng) for _ in range(params["count"])]
    return audit_self_conjugacy(params["oracle"], corpus, tol=tol)


_LOOPS = {"prop1-roundtrip": _loop_prop1, "squares": _loop_squares,
          "real-cartesian": _loop_real_cartesian,
          "complex-cartesian": _loop_complex_cartesian,
          "theorem-real": _loop_theorem_real,
          "theorem-complex": _loop_theorem_complex,
          "self-conjugacy": _loop_self_conjugacy}


def _loop_run(claim_id, parsed, seed, tol, loop=None):
    """run_claim's report, with the claim run by its loop (by default the
    loop of its kind in _LOOPS), and the loop's rng afterwards."""
    kind, _, params = parsed
    rng = np.random.default_rng([seed, zlib.crc32(claim_id.encode())])
    try:
        report = (loop or _LOOPS[kind])(params, rng, tol)
    except IstructError as exc:
        report = VerificationReport(kind, VIOLATED, residuals={},
                                    witness={"error": str(exc)})
    return cli._jsonify(report.to_dict()), rng


def _loop_report(claim_id, parsed, seed, tol, loop=None):
    return _loop_run(claim_id, parsed, seed, tol, loop)[0]


@pytest.fixture
def handler_rngs(monkeypatch):
    """The rng of each claim handler call that run_claim makes, in order."""
    rngs = []
    for kind, (handler, schema) in list(cli.CLAIMS.items()):
        def recorded(params, rng, tol, handler=handler):
            rngs.append(rng)
            return handler(params, rng, tol)

        monkeypatch.setitem(cli.CLAIMS, kind, (recorded, schema))
    return rngs


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
def test_shape_groups_report_what_the_loop_reports(scenario_path, handler_rngs, workload):
    scenario = (load_scenario(scenario_path) if workload == "paper-all"
                else _exact_algebra_scenario(7))
    # doubling multiplies HS by sqrt 2, so the mismatches of this claim name
    # the corpus indices of the operators with HS in (sqrt 2, 2]
    scenario["oracles"]["r-hs-2"] = {"kind": "real", "descriptor": {
        "type": "norm_threshold", "functional": "hilbert_schmidt", "bound": 2.0}}
    scenario["claims"]["theorem-real-hs-2"] = {
        "kind": "theorem-real", "oracle": "r-hs-2", "count": 30,
        "dims": [1, 2, 3], "expect": "violated"}
    claims = _parsed_claims(scenario)
    audits = 2 if workload == "paper-all" else 4
    assert sorted(kind for kind, _, _ in claims.values()) == sorted(
        ["complex-cartesian", "complex-cartesian", "prop1-roundtrip",
         "real-cartesian", "squares"] + ["theorem-real"] * 7
        + ["theorem-complex"] * 4 + ["self-conjugacy"] * audits)
    assert any(params["corrupt"] for _, _, params in claims.values()
               if "corrupt" in params)
    for seed in (1, 2, 3, 7, 101, 12345):
        for tol in _LOOP_TOLERANCES:
            for cid, parsed in claims.items():
                got = cli.run_claim(cid, parsed, seed, tol)["report"]
                want, loop_rng = _loop_run(cid, parsed, seed, tol)
                assert got == want, (cid, seed, tol)
                # at the passing tolerances both drew the same stream, so a
                # draw that leaves the report as it is still shows; a corrupt
                # claim's loop stops at its first item, the handler does not
                if tol == Tolerances() and not parsed[2].get("corrupt"):
                    assert handler_rngs[-1].bit_generator.state == \
                        loop_rng.bit_generator.state, (cid, seed)


def test_first_failing_prop1_item_gives_the_loop_message(scenario_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", scenario_path, "--suite", "prop1-roundtrip", "--out", str(out),
                 "--tol-alg", "1e-20"]) == 1
    assert "FAILED: prop1 (prop1-roundtrip)" in capsys.readouterr().err.splitlines()
    claim = json.loads(out.read_text())["claims"][0]
    scenario = load_scenario(scenario_path)
    parsed = _parsed_claims(scenario)[claim["id"]]
    loop = _loop_report(claim["id"], parsed, scenario["seed"], Tolerances(tol_alg=1e-20))
    assert "algebraic residual" in loop["witness"]["error"]
    assert claim["report"]["witness"]["error"] == loop["witness"]["error"]


def test_corpus_verdict_states_the_tolerances_its_items_apply():
    resolved = {"space": {}, "oracle": {}}
    parsed = cli.parse_claim("sq", {"kind": "squares", "count": 3}, resolved)
    report = cli.run_claim("sq", parsed, 1, Tolerances(tol_alg=1e-10))["report"]
    assert report["status"] == VERIFIED
    assert report["tolerances"] == {"respect": 1e-10, "inverse": 1e-12}


# ---------------------------------------------------------------------------
# The squares and Cartesian claims read their verdicts off residual arrays.
# The reference below is the per-item path they replaced: the report of each
# item from its one-item function, the items drawn and grouped as the claim
# draws them, and the corpus stopped at its first failing item
# ---------------------------------------------------------------------------

def _per_item_outcomes(rng, count, draw, one) -> list:
    """The reports up to and including the first failing item in corpus
    order, one(shape, item) the report of each item; an error there is raised,
    and groups whose items all lie beyond it are not checked."""
    out, stop = {}, None
    for shape, (idx, items) in cli._drawn_groups(rng, count, draw).items():
        if stop is not None and idx[0] > stop:
            break
        for i, item in zip(idx, items):
            try:
                out[i] = one(shape, item), None
            except IstructError as exc:
                out[i] = None, exc
            if (out[i][1] is not None or not out[i][0].ok) and (stop is None or i < stop):
                stop = i
    if stop is not None and out[stop][1] is not None:
        raise out[stop][1]
    return [out[i][0] for i in range(len(out) if stop is None else stop + 1)]


def _per_item_verdict(reports, worst) -> VerificationReport:
    """The last report when it failed, or else verified with, under each key
    of worst, the largest of the residuals it names (None: all) of any report,
    NaN if any is NaN."""
    last = reports[-1]
    if not last.ok:
        return last
    return bounded(last.claim, True, {key: float(np.max([0.0, *(
        v for r in reports for name, v in r.residuals.items()
        if names is None or name in names)])) for key, names in worst.items()},
        last.tolerances)


def _per_item_squares(params, rng, tol):
    def draw(stream):
        space = params["dims"][stream.below(len(params["dims"]))]
        return space, stream.pairing(space.dim)

    def one(space, pairing):
        A = cli.corpus_gen._pairing_matrices(space.dim, [pairing])[0]
        return verify_squares_isomorphism(ComplexStructure(space, A, BY_CONSTRUCTION), tol=tol)

    return _per_item_verdict(_per_item_outcomes(rng, params["count"], draw, one), {
        "worst_respect": ["respect"], "worst_inverse_composition": ["inverse_composition"]})


def _per_item_real_cartesian(params, rng, tol):
    def draw(stream):
        m = 1 + stream.below(params["max_dim"])
        n = 1 + stream.below(params["max_dim"])
        return (m, n), rng.standard_normal((m, n))

    return _per_item_verdict(_per_item_outcomes(
        rng, params["count"], draw, lambda shape, T: verify_real_cartesian_identities(T)),
        {"worst_deviation": None})


def _per_item_complex_cartesian(params, rng, tol):
    def one(shape, draw):
        T, A, B = (stack[0] for stack in cli._complex_ops(shape, [draw]))
        op = RespectingOperator(ComplexStructure(shape[0], A, BY_CONSTRUCTION),
                                ComplexStructure(shape[1], B, BY_CONSTRUCTION), T, 0.0)
        return verify_complex_cartesian_identities(op, tol=tol,
                                                   corrupt_annotation=params["corrupt"])

    return _per_item_verdict(_per_item_outcomes(
        rng, params["count"], lambda stream: cli._draw_complex_op(rng, stream, params["dims"]),
        one), {"worst": None})


_PER_ITEM = {"squares": _per_item_squares, "real-cartesian": _per_item_real_cartesian,
             "complex-cartesian": _per_item_complex_cartesian}


def test_array_verdicts_report_what_the_per_item_path_reports(handler_rngs):
    claims = {cid: parsed for cid, parsed in _parsed_claims(_exact_algebra_scenario(7)).items()
              if parsed[0] in _PER_ITEM}
    assert sorted(claims) == ["complex-cartesian", "complex-cartesian-corrupt",
                              "real-cartesian", "squares"]
    seen = collections.Counter()
    for seed in (1, 2, 7, 101):
        for tol in _LOOP_TOLERANCES:
            for cid, parsed in claims.items():
                got = cli.run_claim(cid, parsed, seed, tol)["report"]
                want, rng = _loop_run(cid, parsed, seed, tol, _PER_ITEM[parsed[0]])
                assert got == want, (cid, seed, tol)
                assert handler_rngs[-1].bit_generator.state == rng.bit_generator.state
                seen[cid, got["status"], "error" in (got["witness"] or {})] += 1
    # real-cartesian is exact at every tolerance and the corrupt claim fails
    # at every one; the others verify and fail, squares also on an error
    assert {key[:2] for key in seen} == {
        ("complex-cartesian", VERIFIED), ("complex-cartesian", VIOLATED),
        ("complex-cartesian-corrupt", VIOLATED), ("real-cartesian", VERIFIED),
        ("squares", VERIFIED), ("squares", VIOLATED)}
    assert seen["squares", VIOLATED, True] > 0


def _planted(monkeypatch, kernel: str, plant) -> tuple:
    """Pass the output of cli's kernel through plant(idx, out), idx the corpus
    indices of the rows of its group.  Returns (shape, idx) of every group
    drawn and the idx of every group checked, in order."""
    drawn, checked = [], []
    drawn_groups, run = cli._drawn_groups, getattr(cli, kernel)

    def recorded(*args):
        groups = drawn_groups(*args)
        drawn[:] = [(shape, idx) for shape, (idx, _) in groups.items()]
        return groups

    def planted(*args, **kwargs):
        checked.append(drawn[len(checked)][1])
        return plant(checked[-1], run(*args, **kwargs))

    monkeypatch.setattr(cli, "_drawn_groups", recorded)
    monkeypatch.setattr(cli, kernel, planted)
    return drawn, checked


_NO_NAMES = {"space": {}, "oracle": {}}


def test_an_array_verdict_names_the_first_failure_in_corpus_order(monkeypatch):
    # every item of the second shape group fails, and the last of the first:
    # the second group's first item comes first in corpus order, and no group
    # after the second is checked, since each starts beyond it
    parsed = cli.parse_claim("cc", {"kind": "complex-cartesian", "count": 40,
                                    "dims": [2, 4]}, _NO_NAMES)
    rows = {}

    def plant(idx, R):
        R = R.copy()
        R[-1 if idx is drawn[0][1] else slice(None), -1] = 1.0
        rows.update(zip(idx, R))
        return R

    drawn, checked = _planted(monkeypatch, "_complex_cartesian_residuals", plant)
    report = cli.run_claim("cc", parsed, 3, Tolerances())["report"]
    first = drawn[1][1][0]
    assert drawn[0][1][-1] > first and len(drawn) > 2
    assert checked == [idx for _, idx in drawn[:2]]
    assert report == cli._complex_cartesian_check(Tolerances(), False).report(
        rows[first]).to_dict()
    assert report["status"] == VIOLATED
    assert report["witness"] == {"failed": {"conjugate_restriction": 1.0}}


def test_a_nan_residual_fails_its_item_and_shows_in_the_report(monkeypatch):
    # a NaN is within no bound: an item that passes but for one NaN residual
    # is the claim's first failure, and its report carries the NaN
    parsed = cli.parse_claim("rc", {"kind": "real-cartesian", "count": 40, "max_dim": 3},
                             _NO_NAMES)

    def plant(idx, R):
        if idx is drawn[0][1]:
            R = R.copy()
            R[len(idx) // 2, 1] = math.nan
        return R

    drawn, _ = _planted(monkeypatch, "_real_cartesian_residuals", plant)
    report = cli.run_claim("rc", parsed, 3, Tolerances())["report"]
    assert len(drawn[0][1]) > 2
    assert report["status"] == VIOLATED
    assert report["residuals"] == {"restriction": 0.0, "reassembly": "nan"}
    assert report["witness"] == {"shape": list(drawn[0][0])}


def test_a_failing_squares_item_names_its_matrix(monkeypatch):
    parsed = cli.parse_claim("sq", {"kind": "squares", "count": 10, "dims": [4]},
                             _NO_NAMES)
    stacks = []
    run = cli._squares_residuals

    def planted(space, As, certificates, *, tol):
        R, errors = run(space, As, certificates, tol=tol)
        stacks.append(As)
        R = R.copy()
        R[3:, 0] = 1.0
        return R, errors

    monkeypatch.setattr(cli, "_squares_residuals", planted)
    report = cli.run_claim("sq", parsed, 1, Tolerances())["report"]
    assert len(stacks) == 1 and len(stacks[0]) == 10
    assert report["status"] == VIOLATED
    assert report["residuals"]["respect"] == 1.0
    assert report["witness"] == {"A": stacks[0][3].tolist()}


def test_the_first_squares_error_in_corpus_order_is_raised(monkeypatch):
    # the last item of the first shape group and the first of the second
    # raise: the second's comes first in corpus order
    parsed = cli.parse_claim("sq", {"kind": "squares", "count": 30, "dims": [2, 4, 6]},
                             _NO_NAMES)

    def plant(idx, out):
        R, errors = out
        j = -1 if idx is drawn[0][1] else 0
        errors = list(errors)
        errors[j] = WitnessError(f"planted at item {idx[j]}")
        return R, errors

    drawn, checked = _planted(monkeypatch, "_squares_residuals", plant)
    report = cli.run_claim("sq", parsed, 1, Tolerances())["report"]
    first = drawn[1][1][0]
    assert drawn[0][1][-1] > first
    assert report["status"] == VIOLATED
    assert report["witness"] == {"error": f"planted at item {first}"}


def _spoil_closed_form(idx, j, closed):
    closed[j] += 1.0 + idx[j]
    return {"abs_error": pytest.approx(1.0 + idx[j], abs=1e-9)}


def _spoil_hs_doubling(idx, j, TT):
    # T (+) T made 0: the deviation is sqrt 2 ||T||_HS, ||T||_F on l2
    m, n = TT.shape[1] // 2, TT.shape[2] // 2
    want = math.sqrt(2.0) * np.linalg.norm(TT[j, :m, :n])
    TT[j] = 0.0
    return {"abs_dev": pytest.approx(want, rel=1e-12)}


def _spoil_prop1(idx, j, w):
    w.residuals[j, 3] = 1.0 + idx[j]
    return dict(zip(ROUNDTRIP.names, w.residuals[j].tolist()))


@pytest.mark.parametrize("claim, kernel, spoil, witness", [
    ({"kind": "euclidean-closed-form", "count": 40, "dims": [2, 4]},
     "_gram_complexification_norms", _spoil_closed_form,
     lambda shape: {"dim": shape[0], "explicit_gram": shape[1]}),
    ({"kind": "hs-doubling", "count": 40, "dims": [1, 2, 3]}, "block_diag2",
     _spoil_hs_doubling, lambda shape: {"shape": [shape[1].dim, shape[0].dim]}),
    ({"kind": "prop1-roundtrip", "count": 40}, "_witnesses", _spoil_prop1,
     lambda shape: {"half_dim": shape}),
], ids=["closed-form", "hs-doubling", "prop1"])
def test_a_corpus_reports_its_first_failing_item(monkeypatch, claim, kernel, spoil, witness):
    # every item of the second shape group breaks its bound, and the last of
    # the first: the report is the second group's first item's, its witness
    # the item's shape group, and no group after the second is checked, since
    # each starts beyond it
    parsed = cli.parse_claim("c", claim, _NO_NAMES)
    want = {}

    def plant(idx, out):
        spoiled = (range(len(idx)) if idx is drawn[1][1]
                   else [len(idx) - 1] if idx is drawn[0][1] else [])
        for j in spoiled:
            want[idx[j]] = spoil(idx, j, out)
        return out

    drawn, checked = _planted(monkeypatch, kernel, plant)
    report = cli.run_claim("c", parsed, 3, Tolerances())["report"]
    first = drawn[1][1][0]
    assert drawn[0][1][-1] > first and len(drawn) > 2
    assert checked == [idx for _, idx in drawn[:2]]
    assert report["status"] == VIOLATED
    assert report["residuals"] == want[first]
    assert report["residuals"] != want[drawn[1][1][1]]
    assert json.loads(json.dumps(report["witness"])) == witness(drawn[1][0])


def test_a_prop1_claim_builds_one_report(monkeypatch):
    # its items' residuals are read off the witnesses' rows, not their reports
    built = []
    post_init = VerificationReport.__post_init__
    monkeypatch.setattr(VerificationReport, "__post_init__",
                        lambda report: built.append(report.claim) or post_init(report))
    parsed = cli.parse_claim("prop1", {"kind": "prop1-roundtrip", "count": 30}, _NO_NAMES)
    assert cli.run_claim("prop1", parsed, 1, Tolerances())["outcome"] == VERIFIED
    assert built == ["complexification-roundtrip"]


def _loop_closed_form(params, rng, tol):
    """euclidean-closed-form one item at a time, each on its own space."""
    lo, hi = params["dims"]
    phi = 2.0 * np.pi * np.arange(8) / 8
    worst = 0.0
    for _ in range(params["count"]):
        dim = int(rng.integers(lo, hi + 1))
        space = random_euclidean_space(dim, rng, explicit_gram=bool(rng.integers(2)))
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        closed = complexification_norm(space, x, y)
        rows = np.cos(phi)[:, None] * x + np.sin(phi)[:, None] * y
        defined = math.sqrt(np.mean(norm_batch(space, rows) ** 2))
        error = abs(closed - defined)
        if not error <= 1e-10:
            return bounded("euclidean-closed-form", False, {"abs_error": error},
                           {"abs": 1e-10}, {"failed": {"abs_error": error}})
        worst = max(worst, error)
    return bounded("euclidean-closed-form", True, {"worst_abs_error": worst}, {"abs": 1e-10})


def _closed_form_claim(dims):
    return cli.parse_claim("closed-form", {"kind": "euclidean-closed-form",
                                           "dims": dims}, {})


@pytest.mark.parametrize("dims", [[2, 6], [1, 8], [1, 1]])
def test_closed_form_groups_report_what_the_loop_reports(handler_rngs, dims):
    parsed = _closed_form_claim(dims)
    worst = []
    for seed in range(50):
        got = cli.run_claim("closed-form", parsed, seed, Tolerances())["report"]
        want, loop_rng = _loop_run("closed-form", parsed, seed, Tolerances(),
                                   _loop_closed_form)
        assert got == want, (dims, seed)
        assert handler_rngs[-1].bit_generator.state == loop_rng.bit_generator.state, \
            (dims, seed)
        worst.append(got["residuals"]["worst_abs_error"])
    assert max(worst) > 0.0  # the comparison sees rounding, not only zeros


def _spoiled_grams(random_grams, spoil):
    """corpus._random_grams with the Gram of each Z whose Z[0, 0] is a key of
    spoil replaced by spoil[Z[0, 0]](Gram), for one Z or a stack."""
    def spoiled(Z):
        G = random_grams(Z).copy()
        for key, how in spoil.items():
            hit = Z[..., 0, 0] == key
            G[hit] = how(G[hit])
        return G

    return spoiled


_NOT_DEFINITE = (lambda G: -G, "Gram matrix must be positive definite")
_NOT_FINITE = (lambda G: G * np.inf, "Gram matrix must be finite")
_NOT_SYMMETRIC = (lambda G: G + np.triu(np.ones(G.shape[-2:]), 1),
                  "Gram matrix must be symmetric")


@pytest.mark.parametrize("dims", [[2, 6], [1, 8], [1, 1]])
def test_closed_form_invalid_gram_gives_the_loop_report(monkeypatch, dims):
    parsed = _closed_form_claim(dims)
    random_grams = istruct.corpus._random_grams
    for seed in (0, 1, 2):
        drawn = []  # the normal draws of each explicit Gram, in corpus order

        def recorded(Z):
            drawn.append(Z)
            return random_grams(Z)

        monkeypatch.setattr(istruct.corpus, "_random_grams", recorded)
        _loop_report("closed-form", parsed, seed, Tolerances(), _loop_closed_form)
        keys = [Z[0, 0] for Z in drawn]
        first, middle, last = keys[0], keys[len(keys) // 2], keys[-1]
        cases = [({key: _NOT_DEFINITE}, _NOT_DEFINITE) for key in (first, middle, last)]
        cases += [({middle: _NOT_FINITE}, _NOT_FINITE),
                  ({middle: _NOT_DEFINITE, last: _NOT_FINITE}, _NOT_DEFINITE),
                  ({middle: _NOT_FINITE, last: _NOT_DEFINITE}, _NOT_FINITE)]
        if dims[1] > 1:  # a 1 x 1 Gram is symmetric
            cases += [({first: _NOT_DEFINITE, middle: _NOT_SYMMETRIC}, _NOT_DEFINITE)]
            if drawn[-1].shape[0] > 1:
                cases += [({middle: _NOT_DEFINITE, last: _NOT_SYMMETRIC}, _NOT_DEFINITE),
                          ({last: _NOT_SYMMETRIC}, _NOT_SYMMETRIC)]
        for spoil, (_, message) in cases:
            spoil = {key: how for key, (how, _) in spoil.items()}
            monkeypatch.setattr(istruct.corpus, "_random_grams",
                                _spoiled_grams(random_grams, spoil))
            got = cli.run_claim("closed-form", parsed, seed, Tolerances())["report"]
            assert got["status"] == VIOLATED
            assert got["witness"] == {"error": message}
            assert got == _loop_report("closed-form", parsed, seed, Tolerances(),
                                       _loop_closed_form)


_KERNELS = [(istruct.corpus, "_complexification_isomorphisms"),
            (istruct.theory, "_conjugations"), (istruct.theory, "_witnesses"),
            (istruct.theory, "_squares_residuals"),
            (istruct.theory, "_real_cartesian_residuals"),
            (istruct.theory, "_complex_cartesian_residuals")]


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
    assert 0 < calls["_squares_residuals"] <= 3
    assert 0 < calls["_real_cartesian_residuals"] <= 36
    assert 0 < calls["_complex_cartesian_residuals"] <= 8


def test_prop1_factorises_no_gram_twice():
    # X's Gram stack is whitened once, for A's certificates and the witness
    # norms: with half_dims [1, 2, 3], X's and Y_C's factors of each shape
    # group (9 Cholesky and 12 inv calls, 3 of each a repeat, when the
    # witness whitened X's Grams again)
    parsed = cli.parse_claim("prop1", _exact_algebra_scenario(1)["claims"]["prop1"],
                             {"space": {}, "oracle": {}})
    with linalg_calls() as log:
        entry = cli.run_claim("prop1", parsed, 1, Tolerances())
    assert entry["outcome"] == VERIFIED
    assert repeats(log) == dict.fromkeys(LINALG, 0)
    assert len(log["cholesky"]) == 6 and len(log["inv"]) == 9


@pytest.mark.parametrize("claim_id", ["theorem-complex-c-opnorm", "audit-c-opnorm"])
def test_a_structure_free_oracle_runs_one_svd_per_decision(claim_id):
    # an operator-norm oracle decides the conjugate as the direct and the
    # unfolded as the squares: 8 SVD calls, each once (16 with 8 repeats and
    # 12 with 4 when every decision ran)
    scenario = _exact_algebra_scenario(1)
    resolved = {"space": {}, "oracle": cli._build_all(scenario, "oracle", cli.oracle_from_dict)}
    parsed = cli.parse_claim(claim_id, scenario["claims"][claim_id], resolved)
    with linalg_calls() as log:
        entry = cli.run_claim(claim_id, parsed, 1, Tolerances())
    assert entry["outcome"] == VERIFIED
    assert len(log["svd"]) == 8 and repeats(log)["svd"] == 0


def _counted_groups(monkeypatch) -> list:
    """Record the output of each ideals._groups pass."""
    passes = []
    groups = istruct.ideals._groups

    def counted(rows):
        passes.append(groups(rows))
        return passes[-1]

    monkeypatch.setattr(istruct.ideals, "_groups", counted)
    return passes


def test_oracle_claims_group_their_corpus_once(monkeypatch):
    # the CLI draws each oracle corpus in its shape groups, so no claim
    # regroups it (regrouping made 20 _groups passes per exact-algebra pass)
    claims = []  # (kind, oracle, decisions) of each claim run
    members = istruct.ideals._members

    def counted_members(oracle, grouped):
        claims[-1][2].append((oracle, grouped))
        return members(oracle, grouped)

    def counted_run(claim_id, parsed, *args, **kwargs):
        kind, _, params = parsed
        claims.append((kind, params.get("oracle"), []))
        return run_claim(claim_id, parsed, *args, **kwargs)

    run_claim = cli.run_claim
    monkeypatch.setattr(cli, "run_claim", counted_run)
    passes = _counted_groups(monkeypatch)
    for module in (istruct.ideals, istruct.theory):
        monkeypatch.setattr(module, "_members", counted_members)
    report = run_suite(_exact_algebra_scenario(7), "exact-algebra")
    assert all(c["outcome"] == "verified" for c in report["claims"])
    assert passes == []
    theorem_complex = [c for c in claims if c[0] == "theorem-complex"]
    assert len(theorem_complex) == 4
    predicates = 0
    for _, oracle, decisions in theorem_complex:
        # a predicate may read A and B: the direct, conjugate and unfolded
        # decisions of one corpus, each once, and one decision of the squares.
        # Any other oracle decides the conjugate as the direct and the unfolded
        # as the squares, so the direct and the squares decision alone
        reads = isinstance(oracle.descriptor, istruct.ideals.MatrixPredicate)
        predicates += reads
        grouped = decisions[0][1]
        on_corpus = [o for o, g in decisions if g is grouped]
        assert len(on_corpus) == (3 if reads else 1)
        assert sum(o is oracle for o in on_corpus) == 1
        assert len(set(map(id, on_corpus))) == len(on_corpus)
        assert len(decisions) == (4 if reads else 2)
        assert [o for o, g in decisions if g is not grouped] == [oracle]
    assert predicates == 2
    for kind, _, decisions in claims:
        if kind == "theorem-real":  # the direct and the unfolded decision
            assert len(decisions) == 2 and decisions[0][1] is decisions[1][1]


def test_theorem_real_groups_a_plain_list_once(monkeypatch):
    passes = _counted_groups(monkeypatch)
    rng = np.random.default_rng(3)
    l2 = [lp_space(n, 2.0) for n in (1, 2, 3)]
    corpus = [RealOperator(rng.standard_normal((cod.dim, dom.dim)), dom, cod)
              for dom, cod in [(l2[0], l2[1]), (l2[1], l2[2]), (l2[2], l2[0])] * 4]
    oracle = cli.oracle_from_dict({"kind": "real", "descriptor": {
        "type": "norm_threshold", "functional": "operator_norm", "bound": 2.0}})
    report = verify_theorem_real(oracle, corpus)
    assert report.ok
    assert len(passes) == 1 and len(passes[0]) == 3


def test_factorization_of_non_finite_products_exits_1_with_its_report(scenario_path,
                                                                      tmp_path, capsys):
    # finite R and S that respect their structures exactly, with R S - I and
    # S R not finite: the SVD of S R used to end the run in LinAlgError
    big = 1e200
    edit = _edit(["claims", "factorization"], {
        "kind": "factorization-check", "space": "plane-l2",
        "R": [[big, big], [big, -big]], "S": [[big, -big], [-big, -big]]})
    with np.errstate(over="ignore", invalid="ignore"):
        assert _run_edited(scenario_path, tmp_path, edit, "pelczynski-chain") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "FAILED: factorization (factorization-check)" in err.splitlines()
    claims = json.loads((tmp_path / "report.json").read_text())["claims"]
    report = next(c for c in claims if c["id"] == "factorization")["report"]
    assert report["witness"] == {"failed": {"RS_minus_I": "inf", "projection": "nan"}}


def test_an_overflowing_factorization_prints_only_its_failure(scenario_path, tmp_path,
                                                              capsys):
    # R S, S R and T A - B T overflow: each residual is not finite and fails
    # its test, with no numpy RuntimeWarning on stderr
    edit = _edit(["claims", "factorization"], {
        "kind": "factorization-check", "space": "plane-l2",
        "R": [[1e308, 1e308], [1e308, 1e308]], "S": [[1e308, 0.0], [0.0, 1e308]]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_edited(scenario_path, tmp_path, edit, "pelczynski-chain") == 1
    assert caught == []
    assert capsys.readouterr().err.splitlines() == ["FAILED: factorization (factorization-check)"]
    claims = json.loads((tmp_path / "report.json").read_text())["claims"]
    report = next(c for c in claims if c["id"] == "factorization")["report"]
    assert report["status"] == VIOLATED
    assert set(report["witness"]["failed"].values()) <= {"inf", "nan"}


def _plain_json(obj) -> bool:
    """obj holds only dicts with string keys, lists, str, int, float, bool and
    None, by exact type: no numpy scalar or array, and no tuple."""
    if type(obj) is dict:
        return all(type(k) is str and _plain_json(v) for k, v in obj.items())
    if type(obj) is list:
        return all(_plain_json(v) for v in obj)
    return type(obj) in (str, int, float, bool, type(None))


def test_claim_entries_hold_only_json_values(scenario_path, monkeypatch):
    # _jsonify replaces non-finite floats and converts nothing else: no claim
    # entry of the benchmark workloads holds a numpy value, a tuple or a
    # non-string key, at passing tolerances or at failing ones
    entries = []
    monkeypatch.setattr(cli, "_jsonify", lambda entry: entries.append(entry) or entry)
    bench = _bench_scenarios()
    outcomes = collections.Counter()
    for workload in bench.WORKLOADS:
        for seed in (1, 7):
            for tols in ({}, {"tol_alg": 1e-20, "tol_iso": 1e-20},
                         {"tol_alg": 0.0, "tol_iso": 0.0}):
                scenario = (load_scenario(scenario_path) if workload == "paper-all" else
                            getattr(bench, workload.replace("-", "_"))(seed))
                report = run_suite(scenario, workload, seed=seed, **tols)
                outcomes.update(c["outcome"] for c in report["claims"])
    assert len(entries) == sum(outcomes.values())
    assert outcomes[VIOLATED] > 0
    assert all(_plain_json(entry) for entry in entries)


def _verdict_of_rows(R, worst):
    """_corpus_verdict of one shape group whose check gives the rows R, each
    within 2.0 in two columns "a" and "b"."""
    check = cli._Residuals("rows", ("a", "b"), np.array([2.0, 2.0]), {"abs": 2.0})
    return cli._corpus_verdict(np.random.default_rng(0), len(R), lambda stream: (0, None),
                               lambda shape, items: (np.array(R), ()), check, worst)


def test_worst_keeps_a_nan_wherever_it_stands():
    # a NaN is within no bound, in either row: its item fails and the report
    # carries the NaN, where max(0.0, nan) would be 0.0; a verified verdict's
    # worst residuals are np.max over the rows of its corpus
    worst = {"a": 0, "b": 1, "any": slice(None)}
    for R, first in (([[0.0, math.nan], [1.0, 0.0]], 0.0),
                     ([[1.0, 0.0], [0.0, math.nan]], 0.0)):
        report = _verdict_of_rows(R, worst)
        assert report.status == VIOLATED
        assert math.isnan(report.residuals["b"]) and report.residuals["a"] == first
    report = _verdict_of_rows([[0.0, 0.5], [1.0, 0.0]], worst)
    assert report.status == VERIFIED
    assert report.residuals == {"a": 1.0, "b": 0.5, "any": 1.0}
    assert type(report.residuals["a"]) is float


@pytest.mark.parametrize("kind, params", [
    ("euclidean-closed-form", {"count": 2, "dims": [2, 2]}),
    ("hs-doubling", {"count": 2, "dims": [cli.corpus_gen._euclidean(2)], "tol": 1e-10}),
], ids=["closed-form", "hs-doubling"])
def test_a_nan_corpus_error_fails_the_claim(monkeypatch, kind, params):
    # the last norm of each group is NaN, so is its error: within no bound
    kernel = "_gram_complexification_norms" if kind == "euclidean-closed-form" else "ideal_norms"
    run = getattr(cli, kernel)

    def planted(*args):
        out = run(*args)
        out[-1] = math.nan
        return out

    monkeypatch.setattr(cli, kernel, planted)
    report = cli.CLAIMS[kind][0](params, np.random.default_rng(0), Tolerances())
    assert report.status == VIOLATED
    assert all(math.isnan(v) for v in report.residuals.values())


@pytest.mark.parametrize("key", ["involution", "anticommutation", "inverse_composition"])
def test_a_nan_prop1_residual_fails_the_claim(monkeypatch, key):
    witnesses = cli._witnesses

    def planted(*args, **kwargs):
        w = witnesses(*args, **kwargs)
        w.residuals[1, ROUNDTRIP.names.index(key)] = math.nan
        return w

    monkeypatch.setattr(cli, "_witnesses", planted)
    report = cli._h_prop1_roundtrip({"count": 2, "half_dims": [1]},
                                    np.random.default_rng(0), Tolerances())
    assert report.status == VIOLATED
    assert math.isnan(report.residuals[key])
