"""The bundled data files are exactly what scripts/make_fixtures.py writes."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["paper_all.json", "prop8_chain.json"])
def test_bundled_fixture_regenerates_byte_for_byte(name):
    texts = _make_fixtures().fixture_texts()
    committed = (ROOT / "src" / "istruct" / "data" / name).read_bytes()
    assert texts[name].encode("utf-8") == committed
