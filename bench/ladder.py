"""Key set-up over a ladder of field sizes, m = 4..16: the set-up half of
the parameter ladder.  Standard library only; not collected by pytest.

    python3 bench/ladder.py [--out BENCH_ladder.json]

For each rung (m, t) it times, on this checkout's `src/`, a cfs keygen with
`random.Random(SEED)`, the first `cfs_verify` against the public key that
keygen returned, saving the secret and the public key, and loading each
back (`load_secret_key`, `load_public_key`), REPEAT times each.  Every rung
draws the same key on every repeat.  The verified signature is a weight-t
error that no counter was decoded for, so verify must reject it; what the
step times is the first product by H_pub, which transposes its column
list (keygen builds H_pub from rows).  The JSON written to
`--out` holds each time in seconds, their median, the key file sizes and
the interpreter and machine it ran on; a summary table goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cfslab import keyfiles, schemes  # noqa: E402  (needs the path above)
from cfslab.linalg import BitVector  # noqa: E402

# t per rung: m*t < 2^m everywhere; m=5,t=3 and m=10,t=4 are the benchmark
# workloads' cfs keys, and t stops at 9 where retry signing (~t! decodes)
# is still within reach
RUNGS = [(4, 2), (5, 3), (6, 4), (7, 4), (8, 5), (9, 5), (10, 4), (11, 6), (12, 8),
         (13, 8), (14, 9), (15, 9), (16, 9)]
STEPS = ("keygen", "first_verify", "save", "load_secret_key", "load_public_key")
SEED = 7
REPEAT = 5


def time_rung(m: int, t: int, workdir: str) -> dict:
    sk_path, pk_path = os.path.join(workdir, "ladder.sk"), os.path.join(workdir, "ladder.pk")
    times = {step: [] for step in STEPS}
    unsigned = schemes.CfsSignature(0, BitVector.from_indices(1 << m, range(t)))
    for _ in range(REPEAT):
        start = perf_counter()
        sk, pk = schemes.cfs_keygen(m, t, random.Random(SEED))
        keygen = perf_counter()
        accepted = schemes.cfs_verify(b"ladder", unsigned, pk)
        verified = perf_counter()
        if accepted:
            raise AssertionError(f"m={m}, t={t}: verify accepted an error that was never signed")
        keyfiles.save_secret_key(sk, "cfs", sk_path)
        keyfiles.save_public_key(pk, "cfs", pk_path)
        saved = perf_counter()
        _, loaded_sk = keyfiles.load_secret_key(sk_path)
        loaded = perf_counter()
        _, loaded_pk = keyfiles.load_public_key(pk_path)
        done = perf_counter()
        if loaded_sk.pk != pk or loaded_pk != pk:
            raise AssertionError(f"m={m}, t={t}: the reloaded key differs")
        marks = (start, keygen, verified, saved, loaded, done)
        for step, begin, end in zip(STEPS, marks, marks[1:]):
            times[step].append(end - begin)
    return {
        "m": m,
        "t": t,
        "n": 1 << m,
        "sk_bytes": os.path.getsize(sk_path),
        "pk_bytes": os.path.getsize(pk_path),
        **{f"{step}_s": values for step, values in times.items()},
        **{f"{step}_s_median": statistics.median(values) for step, values in times.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    args = parser.parse_args(argv)
    rungs = []
    print(f"{'m':>3} {'t':>2} " + " ".join(f"{step + ' ms':>20}" for step in STEPS))
    with tempfile.TemporaryDirectory() as workdir:
        for m, t in RUNGS:
            rung = time_rung(m, t, workdir)
            rungs.append(rung)
            medians = " ".join(f"{rung[step + '_s_median'] * 1e3:20.3f}" for step in STEPS)
            print(f"{m:>3} {t:>2} {medians}", flush=True)
    record = {
        "what": "cfs key set-up per rung: keygen, the first verify against keygen's public key "
        "(an unsigned weight-t error, rejected), save (secret and public), load_secret_key, "
        "load_public_key; seconds, one fixed seed, medians over the repeats",
        "command": " ".join(["python3", "bench/ladder.py", *(sys.argv[1:] if argv is None else argv)]),
        "seed": SEED,
        "repeat": REPEAT,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "rungs": rungs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
