"""The benchmark's traced run wraps program functions by name; every name
it lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module,attr", _traced())
def test_every_traced_function_resolves(module, attr):
    home = importlib.import_module(f"svassess.{module}")
    if "." in attr:  # a method, wrapped on its class
        cls_name, meth = attr.split(".")
        target = getattr(home, cls_name).__dict__[meth]
        target = getattr(target, "__func__", target)
    else:
        target = getattr(home, attr)
    assert callable(target)
