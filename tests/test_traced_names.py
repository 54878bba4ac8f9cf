"""Every function perfbench's tracer patches or counts must exist in cfslab.

`perfbench/spans.py` names them as (module, attribute) pairs, a dotted
attribute being a method, and its `Tracer.install` raises on a missing one;
this test makes a deletion of such a name fail the test suite, not only a
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _spans_module()
PINNED = sorted({**_spans.SPANNED, **_spans.COUNTED})


def test_pinned_names_are_read():
    assert ("goppa", "patterson_decode") in PINNED and ("gf2m", "Poly.eval") in PINNED


@pytest.mark.parametrize("module,attr", PINNED, ids=[f"{m}.{a}" for m, a in PINNED])
def test_pinned_name_resolves(module, attr):
    obj = importlib.import_module(f"{_spans.PACKAGE}.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
