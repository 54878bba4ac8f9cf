"""Key set-up, the code-based hash and key recovery over a ladder of field
sizes, m = 4..16.  Standard library only; not collected by pytest.

    python3 bench/ladder.py [--out BENCH_ladder.json]

For each rung (m, t) it times, on this checkout's `src/`, a cfs keygen with
`random.Random(SEED)`, the first `cfs_verify` against the public key that
keygen returned, saving the secret and the public key, and loading each
back (`load_secret_key`, `load_public_key`), REPEAT times each.  Every rung
draws the same key on every repeat.  The verified signature is a weight-t
error that no counter was decoded for, so verify must reject it; what the
step times is the first product by H_pub, which transposes its column
list (keygen builds H_pub from rows).

The code-hash step builds one mcfsc key and one tilde key (regular
encoder, md-stopped inner hash) per rung from the same seed, with w = 2
(w = 1 at t = 2, since w < t), and times `md_final_state`, `forge_mcfsc`
and `forge_tilde` on one fixed 8 KiB message, REPEAT times each: the
Merkle-Damgard chain at every field size.  Every forgery must verify and
must have cost no decoder call, and an mcfsc forgery must make exactly one
compression fewer than an honest `mcfsc_sign` of the same message and
nonce, counted in its own `count_operations` scope.

The key-recovery step times `attacks.recover_permutation(H, H_pub)` on the
rung's mcfsc key (H_pub = H*P), REPEAT times, each on fresh copies of both
matrices, so that every call transposes both column lists.  The recovered
permutation must be P, unambiguous, found in at most n^2 comparisons.  A
failed check exits non-zero and names the rung.

The JSON written to `--out` holds each time in seconds, their median and
their minimum, the key file sizes, the hash state size s and the
interpreter and machine it ran on; a summary table of the minima goes to
stdout.  On a shared machine the median of REPEAT runs swings up to 2x
between runs of the same code, the minimum much less.
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

from cfslab import attacks, keyfiles, schemes  # noqa: E402  (needs the path above)
from cfslab.codehash import md_final_state  # noqa: E402
from cfslab.linalg import BitMatrix, BitVector  # noqa: E402
from cfslab.metering import count_operations  # noqa: E402

# t per rung: m*t < 2^m everywhere; m=5,t=3 and m=10,t=4 are the benchmark
# workloads' cfs keys, and t stops at 9 where retry signing (~t! decodes)
# is still within reach
RUNGS = [(4, 2), (5, 3), (6, 4), (7, 4), (8, 5), (9, 5), (10, 4), (11, 6), (12, 8),
         (13, 8), (14, 9), (15, 9), (16, 9)]
SETUP_STEPS = ("keygen", "first_verify", "save", "load_secret_key", "load_public_key")
HASH_STEPS = ("md_final_state", "forge_mcfsc", "forge_tilde")
STEPS = SETUP_STEPS + HASH_STEPS + ("recover_permutation",)
SEED = 7
REPEAT = 5
MESSAGE = random.Random(SEED).randbytes(8192)


def check(ok: bool, m: int, t: int, what: str) -> None:
    """One of the paper's checks at a rung: exits non-zero, naming the rung."""
    if not ok:
        raise SystemExit(f"m={m}, t={t}: {what}")


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
        check(not accepted, m, t, "verify accepted an error that was never signed")
        keyfiles.save_secret_key(sk, "cfs", sk_path)
        keyfiles.save_public_key(pk, "cfs", pk_path)
        saved = perf_counter()
        _, loaded_sk = keyfiles.load_secret_key(sk_path)
        loaded = perf_counter()
        _, loaded_pk = keyfiles.load_public_key(pk_path)
        done = perf_counter()
        check(loaded_sk.pk == pk and loaded_pk == pk, m, t, "the reloaded key differs")
        marks = (start, keygen, verified, saved, loaded, done)
        for step, begin, end in zip(SETUP_STEPS, marks, marks[1:]):
            times[step].append(end - begin)
    w = 2 if t > 2 else 1
    mcfsc_sk, mcfsc_pk = schemes.mcfsc_keygen(m, t, w, random.Random(SEED))
    _, tilde_pk = schemes.tilde_keygen(
        m, t, w, random.Random(SEED), encoder_id="regular", hash_id="md-stopped"
    )
    cfg = mcfsc_pk.cfg
    for _ in range(REPEAT):
        start = perf_counter()
        md_final_state(MESSAGE, cfg)
        chained = perf_counter()
        forgery = attacks.forge_mcfsc(MESSAGE, mcfsc_pk, random.Random(SEED))
        forged = perf_counter()
        tilde_forgery = attacks.forge_tilde(MESSAGE, tilde_pk)
        tilde_forged = perf_counter()
        for scheme, public, f in (("mcfsc", mcfsc_pk, forgery), ("tilde", tilde_pk, tilde_forgery)):
            check(schemes.SCHEMES[scheme].verify(MESSAGE, f.signature, public), m, t,
                  f"the {scheme} forgery does not verify")
            check(not f.cost.decode_calls, m, t, f"the {scheme} forgery called the decoder")
        times["md_final_state"].append(chained - start)
        times["forge_mcfsc"].append(forged - chained)
        times["forge_tilde"].append(tilde_forged - forged)
    # the same nonce as the forgeries; its own scope, since nested scopes
    # can drop the outer tally
    with count_operations() as honest:
        schemes.mcfsc_sign(MESSAGE, mcfsc_sk, random.Random(SEED))
    check(forgery.cost.compressions == honest.compressions - 1, m, t,
          f"the mcfsc forgery made {forgery.cost.compressions} compressions, "
          f"the honest signer {honest.compressions}")
    h, h_pub = mcfsc_sk.code.h, mcfsc_pk.h_pub
    row_lists = [[mat.row(i).to_int() for i in range(mat.rows)] for mat in (h, h_pub)]
    for _ in range(REPEAT):
        # fresh copies: a column list kept from the last repeat would hide the transposes
        fresh = [BitMatrix(mat.rows, mat.cols, rows) for mat, rows in zip((h, h_pub), row_lists)]
        start = perf_counter()
        rec = attacks.recover_permutation(*fresh)
        times["recover_permutation"].append(perf_counter() - start)
        check(rec.perm == mcfsc_sk.perm and not rec.ambiguous, m, t,
              "recover_permutation did not return P unambiguously")
        check(rec.comparisons <= (1 << m) ** 2, m, t,
              f"recover_permutation made {rec.comparisons} comparisons, above n^2")
    return {
        "m": m,
        "t": t,
        "n": 1 << m,
        "w": cfg.w,
        "s": cfg.s,
        "sk_bytes": os.path.getsize(sk_path),
        "pk_bytes": os.path.getsize(pk_path),
        **{f"{step}_s": values for step, values in times.items()},
        **{f"{step}_s_median": statistics.median(values) for step, values in times.items()},
        **{f"{step}_s_min": min(values) for step, values in times.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    args = parser.parse_args(argv)
    rungs = []
    print(f"{'m':>3} {'t':>2} " + " ".join(f"{step + ' min ms':>24}" for step in STEPS))
    with tempfile.TemporaryDirectory() as workdir:
        for m, t in RUNGS:
            rung = time_rung(m, t, workdir)
            rungs.append(rung)
            minima = " ".join(f"{rung[step + '_s_min'] * 1e3:24.3f}" for step in STEPS)
            print(f"{m:>3} {t:>2} {minima}", flush=True)
    record = {
        "what": "cfs key set-up per rung: keygen, the first verify against keygen's public key "
        "(an unsigned weight-t error, rejected), save (secret and public), load_secret_key, "
        "load_public_key; then, on an mcfsc and a tilde key (regular encoder, md-stopped) with "
        "w = 2 (w = 1 at t = 2), md_final_state, forge_mcfsc and forge_tilde of one 8 KiB "
        "message (each forgery verified and decode-free; the mcfsc forgery makes one "
        "compression fewer than an honest mcfsc_sign); recover_permutation(H, H_pub) on the mcfsc "
        "key, fresh copies of both matrices per repeat (checked: P, unambiguous, at most n^2 "
        "comparisons); seconds, one fixed seed, each step's "
        "samples with their median and their minimum, since the median of the repeats swings "
        "up to 2x between runs of the same code on a shared machine",
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
