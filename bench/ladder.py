"""Key set-up, the Goppa decoder, signing and verifying, the code-based hash
and key recovery over a ladder of field sizes, m = 4..16.  Standard library
only; not collected by pytest.  With perfbench, the one timing harness of
this repository; `bench/pairs.py --workload ladder` pairs two revisions of it.

    python3 bench/ladder.py [--out BENCH_ladder.json]

For each rung (m, t) it times, on this checkout's `src/`, REPEAT times each:

- cfs key set-up: keygen with `random.Random(SEED)`, the first `cfs_verify`
  against the public key that keygen returned, BATCH steady ones after it
  (`cfs_verify_batch`), saving the secret and the public key, and loading
  each back (`load_secret_key`, `load_public_key`).  Every rung draws the
  same key on every repeat.  The verified signature is a weight-t error
  that no counter was decoded for, so verify must reject it; the first
  verify times the first product by H_pub, which transposes its column
  list (keygen builds H_pub from rows), the batch verifies as every later
  one runs.  One steady verify takes a few microseconds, too short to time
  alone.
- the key's parts: `GoppaCode(g, support)` on a fresh copy of keygen's g,
  so that the irreducibility test runs as a key load pays it, and
  `from_parts` on keygen's code, P and S.  The fresh code's H must be
  keygen's and the assembled public key keygen's.
- the decoder: `patterson_decode` on a seeded batch of BATCH random
  syndromes that fail (`decode_fail`) and on BATCH planted weight-t errors
  (`decode_t`), each of which must come back exactly; then Patterson's five
  stages over the failing batch, each stage over the whole batch:
  `syndrome_poly`, `poly_mod_inv`, `poly_sqrt_mod_g`, `partial_euclid` and
  `root_mask`.  Composed as `patterson_decode` composes them, with the
  locator between the last two from its own untimed helper
  (`goppa._locator`), the stages must give its verdict on every syndrome
  of both batches.
- the code-based hash, on one mcfsc key and one tilde key (regular encoder,
  md-stopped inner hash) per rung from the same seed, with w = 2 (w = 1 at
  t = 2, since w < t), and one fixed 8 KiB message: `md_final_state`,
  `forge_mcfsc`, `forge_tilde`, and `mcfsc_sign`, `mcfsc_verify`,
  `tilde_sign` and `tilde_verify` of honest signatures.  Every forgery and
  every signature must verify, no forgery may call the decoder, and an
  mcfsc forgery must make exactly one compression fewer than the honest
  `mcfsc_sign` of the same message and nonce.
- key recovery: `attacks.recover_permutation(H, H_pub)` on the rung's mcfsc
  key (H_pub = H*P), each on fresh copies of both matrices, so that every
  call transposes both column lists.  The recovered permutation must be P,
  unambiguous, found in at most n^2 comparisons.

A failed check exits non-zero and names the rung.  The JSON written to
`--out` holds each step's times in seconds (a batch step's time is that of
the whole batch), their median and their minimum, the key file sizes, the
hash state size s and the interpreter and machine it ran on; a summary
table of the minima goes to stdout.  On a shared machine the median of
REPEAT runs swings up to 2x between runs of the same code, the minimum much
less.
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

from cfslab import attacks, gf2m, goppa, keyfiles, schemes  # noqa: E402  (needs the path above)
from cfslab.codehash import md_final_state  # noqa: E402
from cfslab.linalg import BitMatrix, BitVector, mat_vec  # noqa: E402
from cfslab.metering import count_operations  # noqa: E402

# t per rung: m*t < 2^m everywhere; m=5,t=3 and m=10,t=4 are the benchmark
# workloads' cfs keys, and t stops at 9 where retry signing (~t! decodes)
# is still within reach
RUNGS = [(4, 2), (5, 3), (6, 4), (7, 4), (8, 5), (9, 5), (10, 4), (11, 6), (12, 8),
         (13, 8), (14, 9), (15, 9), (16, 9)]
SETUP_STEPS = ("keygen", "first_verify", "cfs_verify_batch", "save", "load_secret_key",
               "load_public_key")
PARTS_STEPS = ("goppa_code", "from_parts")
DECODE_STEPS = ("decode_fail", "decode_t")
STAGES = ("syndrome_poly", "poly_mod_inv", "poly_sqrt_mod_g", "partial_euclid", "root_mask")
HASH_STEPS = ("md_final_state", "forge_mcfsc", "forge_tilde", "mcfsc_sign", "mcfsc_verify",
              "tilde_sign", "tilde_verify")
STEPS = SETUP_STEPS + PARTS_STEPS + DECODE_STEPS + STAGES + HASH_STEPS + ("recover_permutation",)
SEED = 7
REPEAT = 5
BATCH = 16
MESSAGE = random.Random(SEED).randbytes(8192)


def check(ok: bool, m: int, t: int, what: str) -> None:
    """One of the paper's checks at a rung: exits non-zero, naming the rung."""
    if not ok:
        raise SystemExit(f"m={m}, t={t}: {what}")


def record_marks(times: dict, steps: tuple, marks: tuple) -> None:
    """Appends the time between consecutive marks to each step in turn."""
    for step, begin, end in zip(steps, marks, marks[1:]):
        times[step].append(end - begin)


def patterson_stages(code: goppa.GoppaCode, batch: list, times: dict) -> list:
    """`patterson_decode`'s five stages, each run over the whole batch and
    timed into `times`, composed as `patterson_decode` composes them (the
    batch holds no zero syndrome); returns each syndrome's verdict."""
    g, t, x = code.g, code.t, gf2m.Poly.x(code.field)

    def stage(step, fn, calls):
        start = perf_counter()
        out = [fn(*args) for args in calls]
        times[step].append(perf_counter() - start)
        return out

    polys = stage("syndrome_poly", code._syndrome_poly, [(s,) for s in batch])
    inverses = stage("poly_mod_inv", gf2m.poly_mod_inv, [(sp, g) for sp in polys])
    taus = stage("poly_sqrt_mod_g", gf2m.poly_sqrt_mod_g,
                 [(inv + x, g, code._sqrt_x) for inv in inverses])
    pairs = stage("partial_euclid", gf2m.partial_euclid, [(g, tau, t // 2) for tau in taus])
    locators = [goppa._locator(u, v) for u, v in pairs]
    masks = stage("root_mask", code.root_mask, [(sigma,) for sigma in locators])
    verdicts = []
    for s, sigma, mask in zip(batch, locators, masks):
        e = BitVector(code.n, mask) if mask.bit_count() == sigma.degree else None
        verdicts.append(e if e is not None and e.weight <= t and mat_vec(code.h, e) == s
                        else None)
    return verdicts


def time_decoder(code: goppa.GoppaCode, times: dict) -> None:
    m, t, r, n = code.m, code.t, code.n_minus_k, code.n
    rng = random.Random(SEED)
    failing = []
    while len(failing) < BATCH:
        s = BitVector(r, rng.getrandbits(r))
        if goppa.patterson_decode(code, s) is None:
            failing.append(s)
    planted = [BitVector.from_indices(n, rng.sample(range(n), t)) for _ in range(BATCH)]
    syndromes = [mat_vec(code.h, e) for e in planted]
    for _ in range(REPEAT):
        start = perf_counter()
        for s in failing:
            goppa.patterson_decode(code, s)
        failed = perf_counter()
        decoded = [goppa.patterson_decode(code, s) for s in syndromes]
        record_marks(times, DECODE_STEPS, (start, failed, perf_counter()))
        check(decoded == planted, m, t, "a planted weight-t error did not come back")
        patterson_stages(code, failing, times)
    batch = failing + syndromes
    expected = [goppa.patterson_decode(code, s) for s in batch]
    check(patterson_stages(code, batch, {step: [] for step in STAGES}) == expected, m, t,
          "Patterson's stages, composed, disagree with patterson_decode")


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
        for _ in range(BATCH):
            accepted |= schemes.cfs_verify(b"ladder", unsigned, pk)
        steady = perf_counter()
        check(not accepted, m, t, "verify accepted an error that was never signed")
        keyfiles.save_secret_key(sk, "cfs", sk_path)
        keyfiles.save_public_key(pk, "cfs", pk_path)
        saved = perf_counter()
        _, loaded_sk = keyfiles.load_secret_key(sk_path)
        loaded = perf_counter()
        _, loaded_pk = keyfiles.load_public_key(pk_path)
        done = perf_counter()
        check(loaded_sk.pk == pk and loaded_pk == pk, m, t, "the reloaded key differs")
        record_marks(times, SETUP_STEPS, (start, keygen, verified, steady, saved, loaded, done))
    code = sk.code
    for _ in range(REPEAT):
        # a fresh g carries no irreducibility verdict, as a key file's does not
        g = gf2m.Poly(code.field, code.g.coeffs)
        start = perf_counter()
        built = goppa.GoppaCode(g, code.support)
        coded = perf_counter()
        _, parts_pk = schemes.CFS.from_parts(code, sk.perm, sk.scrambler)
        record_marks(times, PARTS_STEPS, (start, coded, perf_counter()))
        check(built.h == code.h, m, t, "a code built from keygen's g and support has another H")
        check(parts_pk == pk, m, t, "from_parts on keygen's parts gives another public key")
    time_decoder(code, times)
    w = 2 if t > 2 else 1
    mcfsc_sk, mcfsc_pk = schemes.mcfsc_keygen(m, t, w, random.Random(SEED))
    tilde_sk, tilde_pk = schemes.tilde_keygen(
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
        # the same nonce as the forgery; a scope of its own, since nested
        # scopes can drop the outer tally
        with count_operations() as honest:
            signature = schemes.mcfsc_sign(MESSAGE, mcfsc_sk, random.Random(SEED))
        signed = perf_counter()
        accepted = schemes.mcfsc_verify(MESSAGE, signature, mcfsc_pk)
        verified = perf_counter()
        tilde_signature = schemes.tilde_sign(MESSAGE, tilde_sk)
        tilde_signed = perf_counter()
        tilde_accepted = schemes.tilde_verify(MESSAGE, tilde_signature, tilde_pk)
        record_marks(times, HASH_STEPS, (start, chained, forged, tilde_forged, signed, verified,
                                         tilde_signed, perf_counter()))
        for scheme, public, f in (("mcfsc", mcfsc_pk, forgery), ("tilde", tilde_pk, tilde_forgery)):
            check(schemes.SCHEMES[scheme].verify(MESSAGE, f.signature, public), m, t,
                  f"the {scheme} forgery does not verify")
            check(not f.cost.decode_calls, m, t, f"the {scheme} forgery called the decoder")
        check(accepted, m, t, "an honest mcfsc signature does not verify")
        check(tilde_accepted, m, t, "an honest tilde signature does not verify")
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
    widths = [max(len(step), 8) for step in STEPS]
    print("minima in ms")
    print(f"{'m':>3} {'t':>2} " + " ".join(f"{s:>{w}}" for s, w in zip(STEPS, widths)))
    with tempfile.TemporaryDirectory() as workdir:
        for m, t in RUNGS:
            rung = time_rung(m, t, workdir)
            rungs.append(rung)
            minima = " ".join(f"{rung[s + '_s_min'] * 1e3:{w}.3f}" for s, w in zip(STEPS, widths))
            print(f"{m:>3} {t:>2} {minima}", flush=True)
    record = {
        # the docstring from its step list on, on one line
        "what": " ".join(__doc__.split("\n\n", 2)[2].split()),
        "command": " ".join(["python3", "bench/ladder.py", *(sys.argv[1:] if argv is None else argv)]),
        "seed": SEED,
        "repeat": REPEAT,
        "batch": BATCH,
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
