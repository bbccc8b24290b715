"""The bundled scenario gives no claim a key its kind ignores."""

import json
import pathlib

from istruct.cli import CLAIMS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bundled_claims_use_only_schema_keys():
    # a key the schema does not list is ignored when the claim runs, so it
    # would sit in the shipped scenario and do nothing
    scenario = json.loads((ROOT / "src" / "istruct" / "data" / "paper_all.json")
                          .read_text(encoding="utf-8"))
    for claim_id, claim in scenario["claims"].items():
        allowed = {"kind", "expect"} | set(CLAIMS[claim["kind"]][1])
        assert set(claim) <= allowed, (claim_id, sorted(set(claim) - allowed))
