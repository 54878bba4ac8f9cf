"""Alternating parent/change pairs of perfbench and ladder runs, summarised
as a BENCH_<label>.json.

    python3 bench/pairs.py --parent HEAD~1 --change HEAD --label verify \\
        --pairs 10 --seconds 40 --seed 7 --claim cfs-retry:verify_ms_p50:0.15
    python3 bench/pairs.py --parent HEAD~1 --change HEAD --label decoder \\
        --workload ladder --claim ladder:decode_fail@m16t9:0.5

Each revision is written with `git archive` into its own temporary
directory, so both sides run committed files only, from a clean tree.  Pair
i runs every workload in turn, each on both sides back to back: the parent
first in odd pairs, the change first in even ones.  The workloads are
BENCHMARK.json's, then `ladder`.  A perfbench run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
its side's checkout; its last stdout line is the result, its `report {...}`
line the report.  A ladder run is `python3 bench/ladder.py --out F` in its
side's checkout (its own SEED; --seed and --seconds do not reach it), and
each step's minimum at each rung is a metric `<step>@m<m>t<t>`, lower
better, with no bound.  Standard library and local git only.

The file holds, under the set name `seed<S>`: every run; the
number of pairs per workload; per workload and metric (BENCHMARK.json's
end-to-end metrics, or the ladder's) each side's median and quartiles
(inclusive method), the change's relative median change, the pairs it won
(ties count for neither side), the bound, the spread (the larger side's
interquartile range over its median) and a verdict; attempted and failed
operations; whether every perfbench run's prefix fingerprint and exact
counts agree; and, with --claim, whether the claim is met: the median better
by at least the claimed fraction, the change winning at least nine tenths of
the pairs, and the medians further apart than the parent's quartiles.  A
metric that one side does not report is skipped.  An existing file keeps
its other sets and keys.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LADDER = "ladder"
CLAIM_TARGET = (
    "median at least {:.0%} better, change wins at least 9 of 10 pairs, "
    "median gap larger than the parent's interquartile range"
)
HOW = (
    "alternating parent/change pairs, odd pairs parent first; each pair runs the workloads "
    "in turn, each workload on both sides back to back; each side runs from its own clean "
    "checkout (git archive); perfbench: last stdout line = result, the 'report {...}' line = "
    "report; ladder: each step's minimum at each rung is a metric <step>@m<m>t<t>, lower "
    "better, no bound, no verdict, skipped where one side does not report it. "
    "summary: per workload and end-to-end metric, each side's median and quartiles "
    "(inclusive method), the change's relative median change, the pairs the change won, "
    "the bound from BENCHMARK.json, spread = the larger of the two sides' interquartile "
    "range over its median, and a verdict: 'regression' if the median is worse by more "
    "than the bound, 'unresolved' if the spread exceeds the bound and not every change run "
    "beats every parent run, else 'within bound'."
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(rev: str, into: Path) -> str:
    """Writes the committed tree of rev into `into`; returns its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def ladder_result(record: dict) -> dict:
    """A ladder record as a run result: each step's minimum at each rung is
    the metric `<step>@m<m>t<t>`.  A ladder run that ends has passed all
    its checks, since a failed check exits non-zero."""
    metrics = {f"{key.removesuffix('_s_min')}@m{rung['m']}t{rung['t']}": {"value": value}
               for rung in record["rungs"] for key, value in rung.items() if key.endswith("_s_min")}
    return {"metrics": metrics, "attempted": len(record["rungs"]), "failed": 0, "correct": True}


def ladder_metrics(runs: list[dict]) -> list[dict]:
    """Every metric a ladder run reports, in the order first reported; lower
    is better, and none has a bound."""
    names = dict.fromkeys(name for run in runs if run["workload"] == LADDER and run["result"]
                          for name in run["result"]["metrics"])
    return [{"name": name, "better": "lower", "bound": None} for name in names]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    ladder_out = tree / "ladder-run.json"
    if workload == LADDER:
        cmd = [sys.executable, "bench/ladder.py", "--out", str(ladder_out)]
    else:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    out = {"returncode": proc.returncode, "result": None, "report": None}
    if proc.returncode == 0 and workload == LADDER:
        out["result"] = ladder_result(json.loads(ladder_out.read_text()))
    elif proc.returncode == 0 and lines:
        out["result"] = json.loads(lines[-1])
        reports = [ln for ln in lines if ln.startswith("report ")]
        out["report"] = json.loads(reports[-1][len("report "):]) if reports else None
    else:
        out["stderr_tail"] = proc.stderr[-2000:]
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def summarise(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change
    won, the bound and a verdict (None for a metric with no bound).  A
    metric missing from one side of every pair is skipped."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        by_pair: dict[int, dict[str, float]] = {}
        for run in runs:
            if run["workload"] == workload and run["result"] is not None:
                value = run["result"]["metrics"].get(name)
                if value is not None:
                    by_pair.setdefault(run["pair"], {})[run["side"]] = value["value"]
        whole = [p for p in by_pair.values() if len(p) == 2]
        if not whole:
            continue
        sides = {s: [p[s] for p in whole] for s in SIDES}
        stats = {s: quartiles(sides[s]) for s in SIDES}
        (pq1, pm, pq3), (cq1, cm, cq3) = stats["parent"], stats["change"]
        relative = cm / pm - 1 if pm else 0.0
        spread = max((q3 - q1) / m if m else 0.0 for q1, m, q3 in stats.values())
        bound, verdict = spec["bound"], None
        if bound is not None:
            worse = relative > bound if lower else -relative > bound
            clean = all(better(c, p, lower) for c in sides["change"] for p in sides["parent"])
            verdict = ("regression" if worse
                       else "unresolved" if spread > bound and not clean
                       else "within bound")
        out[name] = {
            "parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cm, "change_q1": cq1, "change_q3": cq3,
            "relative": relative,
            "change_wins": sum(better(p["change"], p["parent"], lower) for p in whole),
            "pairs": len(whole), "bound": bound, "spread": spread, "verdict": verdict,
        }
    return out


def claim_block(summary: dict, claim: str, metrics: list[dict]) -> dict:
    workload, metric, fraction = claim.split(":")
    fraction = float(fraction)
    row = summary.get(workload, {}).get(metric)
    if row is None:
        return {"metric": metric, "workload": workload, "met": False,
                "target": CLAIM_TARGET.format(fraction), "missing": True}
    lower = next(m["better"] == "lower" for m in metrics if m["name"] == metric)
    gap = row["parent_median"] - row["change_median"]
    gain = row["relative"] if not lower else -row["relative"]
    gap = gap if lower else -gap
    iqr = row["parent_q3"] - row["parent_q1"]
    met = gain >= fraction and 10 * row["change_wins"] >= 9 * row["pairs"] and gap > iqr
    return {"metric": metric, "workload": workload, "change_wins": row["change_wins"],
            "pairs": row["pairs"], "median_gap": gap, "parent_iqr": iqr,
            "relative": row["relative"], "met": met, "target": CLAIM_TARGET.format(fraction)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True, help="changed revision")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json unless --out")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workload", action="append",
                   help="default: every BENCHMARK.json workload, then ladder")
    p.add_argument("--claim", help="WORKLOAD:METRIC:FRACTION, e.g. cfs-retry:verify_ms_p50:0.15")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    name = f"seed{args.seed}"

    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        commits = {side: checkout(getattr(args, side), trees[side]) for side in SIDES}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in bench["workloads"]] + [LADDER]
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in workloads:
                for first, side in zip((True, False), order):
                    run = run_once(trees[side], workload, args.seed, args.seconds)
                    runs.append({"set": name, "pair": pair, "workload": workload, "side": side,
                                 "ran_first": first, **run})
                    print(f"pair {pair} {workload} {side}: returncode {run['returncode']}",
                          file=sys.stderr, flush=True)

    metrics = bench["end_to_end"] + ladder_metrics(runs)
    summary = {w: summarise(runs, w, metrics) for w in workloads}
    operations, prefix_identical, fingerprints = {}, True, set()
    for w in workloads:
        operations[w] = {}
        for side in SIDES:
            mine = [r for r in runs if r["workload"] == w and r["side"] == side]
            done = [r["result"] for r in mine if r["result"] is not None]
            operations[w][side] = {
                "attempted": sum(r["attempted"] for r in done),
                "failed": sum(r["failed"] for r in done),
                "runs": len(mine), "crashed": len(mine) - len(done),
                "correct": len(done) == len(mine) and all(r["correct"] for r in done),
            }
        if w == LADDER:
            continue
        prefixes = {json.dumps(r["report"]["prefix"], sort_keys=True)
                    for r in runs if r["workload"] == w and r["report"] is not None}
        prefix_identical &= len(prefixes) == 1
        for prefix in map(json.loads, prefixes):
            fingerprints.add((w, prefix["fingerprint"], json.dumps(prefix["counts"])))

    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update({"label": args.label, "command": "python3 perfbench/run.py --workload <name> "
                "--seed <seed> --seconds <seconds> --trace 0; ladder: python3 bench/ladder.py "
                "--out <file>", "how": HOW})
    for key, value in (
        ("revisions", commits), ("seconds", args.seconds),
        ("pairs", {w: args.pairs for w in workloads}), ("summary", summary),
        ("operations", operations), ("prefix_identical", prefix_identical),
        ("fingerprints", sorted(fingerprints)),
        ("claim", claim_block(summary, args.claim, metrics) if args.claim else None),
    ):
        doc.setdefault(key, {})[name] = value
    doc["runs"] = [r for r in doc.get("runs", []) if r.get("set") != name] + runs
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"out": str(out), "claim": doc["claim"][name],
                      "prefix_identical": prefix_identical}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
