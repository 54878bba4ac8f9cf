"""cfslab benchmark: one process, one thread, one closed-loop client.

    python3 perfbench/run.py --workload cfs-retry --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory.  With `--trace 0` the workload's set-up is timed several
times, then its seeded items run for `--seconds` and the end-to-end metrics
are reported.  With `--trace 1` set-up plus the workload's fixed prefix runs
three times: plain, with every public function wrapped in a span, and plain
again; the per-layer metrics and the tracing overhead are reported.  Either way the
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  See NOTES.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, kernel_seconds
from spans import FORGERS, SIGNERS, SPANNED, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# set-up repeats, spread evenly over the timed loop; setup_s is the mean of
# their middle half.  A median would not do: a set-up of a few ms falls
# wholly in a fast or a slow spell of a shared machine, so the median of the
# repeats jumps between the two speeds from run to run.
SETUP_REPS = 11

# bounded times are at reference speed (see reference.py): on a shared
# machine raw times spread too much from run to run to bound
END_TO_END = {
    "setup_s": "s",
    "sign_per_s": "1/s",
    "sign_ms_p50": "ms",
    "sign_ms_p90": "ms",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}
TIMES = {
    **{k: u for k, u in END_TO_END.items() if k != "peak_rss_mb"},
    "forge_ms_p50": "ms",
    "forge_ms_p90": "ms",
    "census_s": "s",
}
# printed and in the report line, but not bounded: what applies to only some
# workloads or is 0 when all is right, and the raw times
REPORT_ONLY = {
    "forge_ms_p50": "ms", "forge_ms_p90": "ms", "census_s": "s", "fail_ratio": "ratio",
    **{f"raw_{k}": u for k, u in TIMES.items()},
    "kernel_ms_p50": "ms",
}

_CALLS = [
    "goppa.patterson_decode", "gf2m.Poly.eval", "linalg.mat_vec", "codehash.md_hash",
    "codehash.md_final_state", "codehash.compress", "codehash.syndrome_hash",
    "codehash.digest_bits", "schemes.cfs_sign", "schemes.mcfs_sign",
]
_SELF = ["goppa.patterson_decode", "codehash.md_hash"]

PER_LAYER = {
    **{f"{n}.s": "s" for n in SPANNED.values()},
    **{f"{n}.self_s": "s" for n in _SELF},
    **{f"{n}.calls": "count" for n in _CALLS},
    "goppa.patterson_decode.ok_ratio": "ratio",
    "schemes.cfs_sign.attempts_per_sig": "attempts/sig",
    "schemes.mcfs_sign.attempts_per_sig": "attempts/sig",
    "attacks.forge.decode_calls": "count",
    "metering.compressions": "count",
    "metering.matvecs": "count",
    "metering.decode_calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    src = ROOT / "src"
    if not (src / "cfslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cfslab package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


def machine() -> dict:
    return {"cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version()}


def _ms(xs):
    return [1000 * x for x in xs]


def p50(xs):
    return statistics.median(xs) if xs else 0.0


def interquartile_mean(xs):
    xs = sorted(xs)
    q = len(xs) // 4
    return statistics.fmean(xs[q:len(xs) - q])


def p90(xs):
    if len(xs) < 2:
        return max(xs, default=0.0)
    return statistics.quantiles(xs, n=10)[8]


def run_items(workload, rec, seconds=0.0, between=None) -> float:
    """Run items in order: all of the prefix, then more until `seconds` is up.
    `between(elapsed)` runs before each item.  Returns the elapsed time."""
    start = perf_counter()
    i = 0
    while i < workload.prefix or perf_counter() - start < seconds:
        if between is not None:
            between(perf_counter() - start)
        rec.in_prefix = i < workload.prefix
        workload.item(i, rec)
        i += 1
    return perf_counter() - start


def set_up(cls, seed: int, workdir: str):
    """A new workload, set up (the same keys every time for a seed), and the time it took."""
    workload = cls(seed)
    start = perf_counter()
    workload.setup(workdir)
    return workload, perf_counter() - start


def prefix_summary(rec) -> dict:
    return {
        "fingerprint": rec.fingerprint(),
        "counts": dict(rec.counts),
        "signatures": rec.signatures,
        "sign_decode_calls": rec.sign_decodes,
    }


def timings(setup_times, samples) -> dict:
    """The time metrics of TIMES, from set-up and per-call times in seconds."""
    ms = {kind: _ms(xs) for kind, xs in samples.items()}
    return {
        "setup_s": interquartile_mean(setup_times),
        "sign_per_s": len(samples["sign"]) / sum(samples["sign"]) if samples["sign"] else 0.0,
        "sign_ms_p50": p50(ms["sign"]),
        "sign_ms_p90": p90(ms["sign"]),
        "verify_ms_p50": p50(ms["verify"]),
        "verify_ms_p90": p90(ms["verify"]),
        "forge_ms_p50": p50(ms["forge"]),
        "forge_ms_p90": p90(ms["forge"]),
        "census_s": p50(samples["census"]),
    }


def measure(name: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict, object]:
    """Untraced run: the timed loop, with the set-up repeats spread over it."""
    from workloads import WORKLOADS, Recorder

    raw_setup, setup = [], []

    def timed_setup():
        before = kernel_seconds()
        workload, elapsed = set_up(WORKLOADS[name], seed, workdir)
        raw_setup.append(elapsed)
        setup.append(elapsed * REFERENCE_S / ((before + kernel_seconds()) / 2))
        return workload

    def more_setups(elapsed):
        if len(setup) < SETUP_REPS and elapsed >= len(setup) * seconds / SETUP_REPS:
            timed_setup()

    workload = timed_setup()
    rec = Recorder()
    elapsed = run_items(workload, rec, seconds=seconds, between=more_setups)
    while len(setup) < SETUP_REPS:
        timed_setup()

    scaled = timings(setup, {kind: rec.at_reference_speed(kind) for kind in rec.samples})
    metrics = {k: scaled[k] for k in END_TO_END if k in scaled}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_reps": len(setup),
        "loop_s": elapsed,
        "samples": {k: len(v) for k, v in rec.samples.items()},
        **{k: v for k, v in scaled.items() if k not in END_TO_END},
        "fail_ratio": rec.failed / rec.attempted,
        **{f"raw_{k}": v for k, v in timings(raw_setup, rec.samples).items()},
        "kernel_ms_p50": p50(_ms(rec.kernels)),
        "prefix": prefix_summary(rec),
    }
    return metrics, report, rec


def traced(name: str, seed: int, workdir: str, out_path=None) -> tuple[dict, dict, object, list[str]]:
    """Set-up plus the fixed prefix: plain, traced, plain; per-layer metrics and checks."""
    from workloads import WORKLOADS, Recorder

    def one_pass(tracer=None):
        rec = Recorder()
        start = perf_counter()
        workload, _ = set_up(WORKLOADS[name], seed, workdir)
        before = tracer.snapshot() if tracer else None
        run_items(workload, rec)
        after = tracer.snapshot() if tracer else None
        return rec, perf_counter() - start, before, after

    # plain passes before and after the traced one, so drift in machine speed
    # cancels out of the overhead
    plain, plain_before_s, _, _ = one_pass()
    tracer = Tracer()
    with tracer:
        rec, traced_s, before, after = one_pass(tracer)
    plain_after, plain_after_s, _, _ = one_pass()
    plain_s = (plain_before_s + plain_after_s) / 2
    if out_path is not None:
        tracer.write(out_path)

    calls, total, self_ns = tracer.calls, tracer.total_ns, tracer.self_ns
    under = tracer.decodes_under

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for key in PER_LAYER:
        base, _, kind = key.rpartition(".")
        if kind == "s":
            metrics[key] = total[base] / 1e9
        elif kind == "self_s":
            metrics[key] = self_ns[base] / 1e9
        elif kind == "calls":
            metrics[key] = calls[base]
    decode = "goppa.patterson_decode"
    metrics[f"{decode}.ok_ratio"] = ratio(tracer.decodes_ok, calls[decode])
    for signer in ("schemes.cfs_sign", "schemes.mcfs_sign"):
        metrics[f"{signer}.attempts_per_sig"] = ratio(under.get(signer, 0), calls[signer])
    metrics["attacks.forge.decode_calls"] = sum(under.get(f, 0) for f in FORGERS)
    for key, value in rec.counts.items():
        metrics[f"metering.{key}"] = value
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_ratio"] = ratio(traced_s - plain_s, plain_s)

    # cross-checks: tracing changes no output, and span counts equal metering
    problems = []
    if plain.failed or plain_after.failed:
        problems.append(f"{plain.failed + plain_after.failed} failures in the plain passes")
    if not prefix_summary(plain) == prefix_summary(rec) == prefix_summary(plain_after):
        problems.append("the traced pass differs from the plain passes in outputs or counts")
    ops = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    for span, count in (("linalg.mat_vec", "matvecs"), ("codehash.compress", "compressions"),
                        (decode, "decode_calls")):
        if ops[span] != rec.counts[count]:
            problems.append(f"{ops[span]} traced {span} calls but metering counted {rec.counts[count]} {count}")
    if metrics["attacks.forge.decode_calls"] or rec.forge_decodes:
        problems.append("a forger called the decoder")
    signing_decodes = sum(under.get(s, 0) for s in SIGNERS)
    if signing_decodes != rec.sign_decodes:
        problems.append(f"{signing_decodes} traced signing decodes but metering counted {rec.sign_decodes}")

    report = {
        "plain_s": [plain_before_s, plain_after_s],
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "trace_file": str(out_path) if out_path else None,
        "fail_ratio": rec.failed / rec.attempted,
        "prefix": prefix_summary(rec),
        "problems": problems,
    }
    return metrics, report, rec, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cfslab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="keys-", dir=OUT_DIR)
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, report, rec, problems = traced(args.workload, args.seed, workdir, trace_path)
            units = PER_LAYER
        else:
            metrics, report, rec = measure(args.workload, args.seed, args.seconds, workdir)
            problems = []
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine())
    for key, value in metrics.items():
        print(f"{key:40} {value:<14.6g} {units[key]}")
    if not args.trace:
        for key, unit in REPORT_ONLY.items():
            print(f"{key:40} {report[key]:<14.6g} {unit} (report only)")
        for kind, n in report["samples"].items():
            print(f"{kind + ' samples':40} {n}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": rec.failed == 0 and not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
