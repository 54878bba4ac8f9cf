"""bench/pairs.py, the parent/change pair runner: its summary and claim
rules on made-up runs and made-up ladder records, and one zero-second
cfs-retry pair of HEAD against HEAD."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "verify_ms_p50", "better": "lower", "bound": 0.2},
    {"name": "sign_per_s", "better": "higher", "bound": 0.2},
]


def in_work_tree() -> bool:
    try:
        out = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return False
    return out.stdout.strip() == "true"


def made_up(parent: list[float], change: list[float], metric="verify_ms_p50") -> list[dict]:
    runs = []
    for pair, values in enumerate(zip(parent, change), 1):
        for side, value in zip(pairs.SIDES, values):
            metrics = {m["name"]: {"value": 1.0} for m in METRICS} | {metric: {"value": value}}
            runs.append({"pair": pair, "side": side, "workload": "w",
                         "result": {"metrics": metrics}})
    return runs


PARENT = [10.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize("losses, met", [(0, True), (1, True), (2, False)])
def test_a_claim_needs_nine_wins_in_ten(losses, met):
    change = [8.0] * (10 - losses) + [11.0] * losses
    summary = {"w": pairs.summarise(made_up(PARENT, change), "w", METRICS)}
    row = summary["w"]["verify_ms_p50"]
    assert (row["change_wins"], row["pairs"]) == (10 - losses, 10)
    assert pairs.claim_block(summary, "w:verify_ms_p50:0.15", METRICS)["met"] is met


def test_a_claim_needs_its_fraction_and_a_gap_wider_than_the_parent_quartiles():
    summary = {"w": pairs.summarise(made_up(PARENT, [x - 1.0 for x in PARENT]), "w", METRICS)}
    assert pairs.claim_block(summary, "w:verify_ms_p50:0.05", METRICS)["met"] is True
    assert pairs.claim_block(summary, "w:verify_ms_p50:0.15", METRICS)["met"] is False
    # every pair won, by less than the parent's own quartile distance
    summary = {"w": pairs.summarise(made_up(PARENT, [x - 0.001 for x in PARENT]), "w", METRICS)}
    assert pairs.claim_block(summary, "w:verify_ms_p50:0.0", METRICS)["met"] is False


def test_ties_count_for_neither_side_and_higher_can_be_better():
    row = pairs.summarise(made_up(PARENT, PARENT, "sign_per_s"), "w", METRICS)["sign_per_s"]
    assert row["change_wins"] == 0 and row["verdict"] == "within bound"
    row = pairs.summarise(made_up(PARENT, [7.0] * 10, "sign_per_s"), "w", METRICS)["sign_per_s"]
    assert row["change_wins"] == 0 and row["verdict"] == "regression"
    assert pairs.claim_block({"w": {"sign_per_s": row}}, "w:sign_per_s:0.1", METRICS)["met"] is False


def ladder_record(steps: dict[str, float], rungs=((4, 2), (16, 9))) -> dict:
    """A made-up ladder record: per rung and step two samples, v and 2v."""
    record = {"rungs": []}
    for m, t in rungs:
        rung = {"m": m, "t": t, "n": 1 << m, "s": 4}
        for step, v in steps.items():
            rung |= {f"{step}_s": [2 * v, v], f"{step}_s_median": 1.5 * v, f"{step}_s_min": v}
        record["rungs"].append(rung)
    return record


def test_each_ladder_minimum_is_a_metric_named_by_step_and_rung():
    result = pairs.ladder_result(ladder_record({"keygen": 0.5, "decode_fail": 0.02}))
    assert result["metrics"] == {
        "keygen@m4t2": {"value": 0.5}, "decode_fail@m4t2": {"value": 0.02},
        "keygen@m16t9": {"value": 0.5}, "decode_fail@m16t9": {"value": 0.02},
    }
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 0, True)


def ladder_runs(parent_steps, change_steps) -> list[dict]:
    return [{"pair": pair, "side": side, "workload": pairs.LADDER,
             "result": pairs.ladder_result(ladder_record(steps(pair)))}
            for pair in range(1, 11)
            for side, steps in zip(pairs.SIDES, (parent_steps, change_steps))]


def test_a_ladder_claim_and_a_step_missing_on_the_parent_side():
    runs = ladder_runs(lambda i: {"decode_fail": 0.020 + 0.0001 * i},
                       lambda i: {"decode_fail": 0.010 + 0.0001 * i, "goppa_code": 0.003})
    metrics = pairs.ladder_metrics(runs)
    assert [m["name"] for m in metrics] == [
        "decode_fail@m4t2", "decode_fail@m16t9", "goppa_code@m4t2", "goppa_code@m16t9"]
    summary = {pairs.LADDER: pairs.summarise(runs, pairs.LADDER, metrics)}
    assert list(summary[pairs.LADDER]) == ["decode_fail@m4t2", "decode_fail@m16t9"]
    row = summary[pairs.LADDER]["decode_fail@m16t9"]
    assert (row["change_wins"], row["pairs"], row["bound"], row["verdict"]) == (10, 10, None, None)
    assert row["parent_median"] == pytest.approx(0.02055)
    assert pairs.claim_block(summary, "ladder:decode_fail@m16t9:0.4", metrics)["met"] is True
    assert pairs.claim_block(summary, "ladder:decode_fail@m16t9:0.6", metrics)["met"] is False
    missing = pairs.claim_block(summary, "ladder:goppa_code@m16t9:0.1", metrics)
    assert missing["missing"] is True and missing["met"] is False


@pytest.mark.skipif(not in_work_tree(), reason="needs a git work tree")
def test_head_against_head(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    cmd = [sys.executable, str(ROOT / "bench" / "pairs.py"), "--parent", "HEAD",
           "--change", "HEAD", "--label", "smoke", "--pairs", "1", "--seconds", "0",
           "--workload", "cfs-retry", "--claim", "cfs-retry:verify_ms_p50:0.15", "--out", str(out)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=600)
    doc = json.loads(out.read_text())
    assert [(r["pair"], r["side"], r["ran_first"]) for r in doc["runs"]] == [
        (1, "parent", True), (1, "change", False)]
    revisions = doc["revisions"]["seed7"]
    assert revisions["parent"] == revisions["change"]
    assert doc["prefix_identical"]["seed7"] is True
    [(workload, fingerprint, _)] = doc["fingerprints"]["seed7"]
    assert workload == "cfs-retry" and len(fingerprint) == 64
    operations = doc["operations"]["seed7"]["cfs-retry"]
    assert all(operations[s]["correct"] and not operations[s]["failed"] for s in pairs.SIDES)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = doc["summary"]["seed7"]["cfs-retry"]
    assert set(summary) == {m["name"] for m in bench["end_to_end"]}
    assert all(row["pairs"] == 1 for row in summary.values())
    assert doc["claim"]["seed7"]["pairs"] == 1


def test_the_record_describes_itself_by_the_docstring(tmp_path, monkeypatch):
    # main() on one made-up pair: no git, no perfbench run
    def checkout(rev, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        return rev

    def run_once(tree, workload, seed, seconds):
        result = {"metrics": {}, "attempted": 1, "failed": 0, "correct": True}
        return {"returncode": 0, "result": result,
                "report": {"prefix": {"fingerprint": "0" * 64, "counts": {}}}}

    monkeypatch.setattr(pairs, "checkout", checkout)
    monkeypatch.setattr(pairs, "run_once", run_once)
    out = tmp_path / "BENCH_how.json"
    pairs.main(["--parent", "a", "--change", "b", "--label", "how", "--pairs", "1",
                "--workload", "cfs-retry", "--out", str(out)])
    how = json.loads(out.read_text())["how"]
    assert how.startswith("Each revision is written with `git archive` into its own temporary")
    assert how == " ".join(pairs.__doc__[pairs.__doc__.index("Each revision"):].split())
    assert ("a verdict: 'regression' if the median is worse by more than the bound, "
            "'unresolved' if the spread exceeds the bound and not every change run beats "
            "every parent run, else 'within bound'") in how
