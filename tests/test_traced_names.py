"""Every function perfbench's tracer patches or counts, and every one its
workloads call, must exist in cfslab.

`perfbench/spans.py` names the traced ones as (module, attribute) pairs, a
dotted attribute being a method, and its `Tracer.install` raises on a
missing one.  `perfbench/workloads.py` calls `<module>.<name>` on the cfslab
modules it imports, read here from its source, and flips a signature bit
with `BitVector.flip`.  This test makes a deletion or rename of any of
these fail the test suite, not only a benchmark run.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_names():
    """(module, name) for each `<module>.<name>` in workloads.py whose
    module it imports with `from cfslab import ...`."""
    text = (PERFBENCH / "workloads.py").read_text()
    modules = re.search(r"^from cfslab import (.+)$", text, re.M).group(1).split(", ")
    return set(re.findall(rf"\b({'|'.join(modules)})\.(\w+)", text))


_spans = _spans_module()
WORKLOAD_CALLS = _workload_names() | {("linalg", "BitVector.flip")}
PINNED = sorted({**_spans.SPANNED, **_spans.COUNTED}.keys() | WORKLOAD_CALLS)


def test_pinned_names_are_read():
    assert ("goppa", "patterson_decode") in PINNED and ("gf2m", "Poly.eval") in PINNED
    assert ("linalg", "mat_vec") in PINNED
    assert {("schemes", "cfs_keygen"), ("metering", "count_operations")} <= WORKLOAD_CALLS


@pytest.mark.parametrize("module,attr", PINNED, ids=[f"{m}.{a}" for m, a in PINNED])
def test_pinned_name_resolves(module, attr):
    obj = importlib.import_module(f"{_spans.PACKAGE}.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
