"""The bundled data files are exactly what scripts/make_fixtures.py writes,
and the bundled scenario gives no claim a key its kind ignores."""

import importlib.util
import json
import pathlib

import pytest

from istruct.cli import CLAIMS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["paper_all.json"])
def test_bundled_fixture_regenerates_byte_for_byte(name):
    texts = _make_fixtures().fixture_texts()
    committed = (ROOT / "src" / "istruct" / "data" / name).read_bytes()
    assert texts[name].encode("utf-8") == committed


def test_bundled_claims_use_only_schema_keys():
    # a key the schema does not list is ignored when the claim runs, so it
    # would sit in the shipped scenario and do nothing
    scenario = json.loads((ROOT / "src" / "istruct" / "data" / "paper_all.json")
                          .read_text(encoding="utf-8"))
    for claim_id, claim in scenario["claims"].items():
        allowed = {"kind", "expect"} | set(CLAIMS[claim["kind"]][1])
        assert set(claim) <= allowed, (claim_id, sorted(set(claim) - allowed))
