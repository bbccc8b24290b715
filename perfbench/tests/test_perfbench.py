"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import istruct  # noqa: E402
import istruct.cli as cli  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from tracer import Tracer, istruct_callables, self_times  # noqa: E402
from worker import expectations, failed_claims  # noqa: E402

GENERATED = ("exact-algebra", "non-euclidean")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_same_bytes(workload):
    first = scenarios.scenario_text(workload, 7, ROOT)
    assert first == scenarios.scenario_text(workload, 7, ROOT)
    assert first != scenarios.scenario_text(workload, 8, ROOT)


@pytest.mark.parametrize("workload", GENERATED)
def test_seed_changes_values_not_work(workload):
    def shape(text):
        s = json.loads(text)
        return (s["claims"],
                {name: sp["dim"] for name, sp in s["spaces"].items()})
    assert shape(scenarios.scenario_text(workload, 1, ROOT)) == \
        shape(scenarios.scenario_text(workload, 2, ROOT))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", GENERATED)
def test_generated_claims_come_out_as_expected(workload, seed, tmp_path):
    scenario, suite = scenarios.write_scenario(workload, seed, tmp_path, ROOT)
    report = tmp_path / "report.json"
    code = cli.main(["run", str(scenario), "--suite", suite, "--out", str(report)])
    expected = expectations(str(scenario), suite)
    assert len(expected) >= 20
    assert failed_claims(code, str(report), expected) == set()


def test_gate_counts_a_claim_that_misses_its_expectation(tmp_path):
    scenario = json.loads(scenarios.scenario_text("exact-algebra", 1, ROOT))
    scenario["claims"]["factorization"]["expect"] = "violated"
    scenario["suites"] = {"one": ["factorization", "chain-reference"]}
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    report = tmp_path / "report.json"
    code = cli.main(["run", str(path), "--suite", "one", "--out", str(report)])
    assert code == 1
    assert failed_claims(code, str(report), expectations(str(path), "one")) == {"factorization"}
    # no report at all: every claim of the pass failed
    assert failed_claims(2, str(tmp_path / "none.json"),
                         expectations(str(path), "one")) == {"factorization", "chain-reference"}


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert metric["unit"] == run.unit_of(metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_self_times_add_up_to_the_root():
    # root [0, 10] with children a [1, 4] (child c [2, 3]) and b [5, 9]
    spans = [("root", 0.0, 10.0, -1, None), ("a", 1.0, 4.0, 0, None),
             ("c", 2.0, 3.0, 1, None), ("b", 5.0, 9.0, 0, None)]
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == spans[0][2] - spans[0][1]


def test_traced_call_tree_and_restore(tmp_path):
    scenario, suite = scenarios.write_scenario("exact-algebra", 1, tmp_path, ROOT)
    data = json.loads(scenario.read_text(encoding="utf-8"))
    data["suites"] = {"small": ["chain-reference", "natural-quad-2", "theorem-real-r-opnorm-2"]}
    scenario.write_text(json.dumps(data), encoding="utf-8")
    before = istruct_callables()
    tracer = Tracer(layers.traced_targets() + [("istruct.structures", "gone")],
                    layers.ANNOTATE)
    with tracer:
        assert istruct.spaces.norm_batch is not before[("istruct.spaces", "norm_batch")]
        # the copy made by `from .spaces import norm_batch` is wrapped too
        assert istruct.structures.norm_batch is istruct.spaces.norm_batch
        tracer.wrap_imported(cli, "json", "dump", layers.REPORT_DUMP)
        code = cli.main(["run", str(scenario), "--suite", "small",
                         "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert istruct_callables() == before
    assert cli.json is json
    assert "istruct.structures.gone" in tracer.absent

    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    assert [spans[i][0] for i in roots] == ["cli.main"]
    own = self_times(spans)
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9)
    m = layers.layer_metrics(spans, spans[0][2] - spans[0][1], 1.0)
    assert m["ideals.decide_real.calls"] > 0
    assert m["structures.certify.exact.calls"] >= 1
    assert m["pelczynski.check_derivation.calls"] >= 1
    assert m["cli.report_dump_s"] > 0
    assert m["trace.top_span_frac"] == pytest.approx(1.0)
    assert set(m) <= set(layers.metric_names())


def test_bare_directory_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "paper-all", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
