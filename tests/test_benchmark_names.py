"""The functions the benchmark's per-layer metrics read by name still exist.

The tracer records a name it cannot find as absent, and the metrics built on
it then read 0, so deleting or renaming one of these functions would blind
the benchmark without any failure there.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402


@pytest.mark.parametrize("name", layers.NAMED)
def test_traced_name_is_an_istruct_function(name):
    module, function = ("istruct." + name).rsplit(".", 1)
    assert inspect.isfunction(getattr(importlib.import_module(module), function, None))
