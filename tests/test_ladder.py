"""`bench/ladder.py` runs end to end on its two smallest rungs, and a failed
check exits naming the rung.

The ladder is opt-in and not collected by pytest, so this is what notices a
rename in `cfslab` it calls or a paper check of its that no longer holds.
It is loaded by path, as `test_traced_names.py` loads perfbench's tracer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"


def _ladder_module():
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_runs_its_checks_on_the_smallest_rungs(tmp_path, monkeypatch):
    ladder = _ladder_module()
    monkeypatch.setattr(ladder, "RUNGS", [(4, 2), (5, 3)])
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    rungs = record["rungs"]
    assert record["what"].startswith("For each rung (m, t) it times")  # the docstring's step list
    assert [(r["m"], r["t"]) for r in rungs] == [(4, 2), (5, 3)]
    assert {"forge_tilde", "recover_permutation", "cfs_verify_batch", "goppa_code", "from_parts",
            "decode_fail", "decode_t", "syndrome_poly", "poly_mod_inv", "poly_sqrt_mod_g",
            "partial_euclid", "root_mask", "mcfsc_sign", "mcfsc_verify", "tilde_sign",
            "tilde_verify"} <= set(ladder.STEPS)
    for rung in rungs:
        for step in ladder.STEPS:
            samples = rung[f"{step}_s"]
            assert len(samples) == ladder.REPEAT and min(samples) > 0
            assert rung[f"{step}_s_min"] == min(samples)
            assert min(samples) <= rung[f"{step}_s_median"] <= max(samples)


@pytest.mark.parametrize("module, name, fake, what", [
    ("goppa", "patterson_decode", lambda code, s: None,
     "a planted weight-t error did not come back"),
    # the decoder keeps its own binding, so only the ladder's stage copy drifts
    ("gf2m", "poly_sqrt_mod_g", lambda f, g, sqrt_x: f % g,
     "Patterson's stages, composed, disagree with patterson_decode"),
], ids=["decoder", "stage-copy"])
def test_a_failed_check_exits_naming_the_rung(tmp_path, monkeypatch, module, name, fake, what):
    ladder = _ladder_module()
    monkeypatch.setattr(ladder, "RUNGS", [(4, 2)])
    monkeypatch.setattr(getattr(ladder, module), name, fake)
    with pytest.raises(SystemExit, match=f"^m=4, t=2: {what}"):
        ladder.main(["--out", str(tmp_path / "ladder.json")])
    assert not (tmp_path / "ladder.json").exists()
