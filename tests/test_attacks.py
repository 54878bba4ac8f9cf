import inspect
import random

import pytest

import cfslab.attacks as attacks_module
from cfslab.attacks import (
    forge_mcfsc,
    forge_tilde,
    forgery_record,
    recover_permutation,
)
from cfslab.codehash import md_hash
from cfslab.errors import NoPermutationError
from cfslab.goppa import goppa_keygen
from cfslab.linalg import BitMatrix, Permutation
from cfslab.metering import count_operations
from cfslab.schemes import (
    SCHEMES,
    mcfsc_keygen,
    mcfsc_sign,
    mcfsc_verify,
    tilde_keygen,
    tilde_sign,
    tilde_verify,
    _counter_bytes,
)
from oracles import permute_columns


@pytest.fixture(scope="module")
def mcfsc_keys():
    return mcfsc_keygen(4, 3, 2, random.Random(401))


@pytest.fixture(scope="module")
def tilde_keys():
    return tilde_keygen(4, 3, 2, random.Random(402))


def test_forge_mcfsc_always_verifies(mcfsc_keys):
    _, pk = mcfsc_keys
    rng = random.Random(403)
    for _ in range(100):
        msg = rng.randbytes(rng.randrange(0, 50))
        f = forge_mcfsc(msg, pk, rng)
        assert mcfsc_verify(msg, f.signature, pk)
        assert f.cost.decode_calls == 0
        assert f.signature.error.weight == pk.w


def test_forge_mcfsc_empty_message(mcfsc_keys):
    _, pk = mcfsc_keys
    f = forge_mcfsc(b"", pk, random.Random(404))
    assert mcfsc_verify(b"", f.signature, pk)


def test_forge_mcfsc_exactly_one_compression_cheaper(mcfsc_keys):
    sk, pk = mcfsc_keys
    rng = random.Random(405)
    for _ in range(30):
        msg = rng.randbytes(rng.randrange(0, 60))
        f = forge_mcfsc(msg, pk, rng)
        with count_operations() as honest:
            mcfsc_sign(msg, sk, rng)
        assert f.cost.compressions == honest.compressions - 1
        assert honest.decode_calls == 1 and f.cost.decode_calls == 0


@pytest.mark.parametrize("encoder_id,hash_id", [("regular", "md-stopped"), ("digits", "sha256")])
def test_forge_tilde_always_verifies(encoder_id, hash_id):
    _, pk = tilde_keygen(4, 3, 2, random.Random(406), encoder_id=encoder_id, hash_id=hash_id)
    rng = random.Random(407)
    for _ in range(100):
        msg = rng.randbytes(rng.randrange(0, 50))
        f = forge_tilde(msg, pk)
        assert tilde_verify(msg, f.signature, pk)
        assert f.cost.decode_calls == 0
        assert f.signature.error.weight <= pk.t


def test_forge_tilde_matches_honest_signature(tilde_keys):
    # the honest signer decodes its way to the very vector the forger
    # writes down directly (unique decoding below half the distance)
    sk, pk = tilde_keys
    rng = random.Random(408)
    for _ in range(30):
        msg = rng.randbytes(20)
        assert forge_tilde(msg, pk).signature.error == tilde_sign(msg, sk).error


def test_forge_tilde_cost_no_worse_than_honest(tilde_keys):
    sk, pk = tilde_keys
    rng = random.Random(409)
    for _ in range(20):
        msg = rng.randbytes(rng.randrange(0, 60))
        f = forge_tilde(msg, pk)
        with count_operations() as honest:
            tilde_sign(msg, sk)
        assert f.cost.compressions <= honest.compressions
        assert f.cost.matvecs < honest.matvecs  # forger skips the syndrome
        assert f.cost.decode_calls <= honest.decode_calls
        assert honest.decode_calls == 1


def test_forge_tilde_consistent_with_forge_mcfsc(mcfsc_keys):
    # regular encoder + stopped hash on the same public matrix: feeding the
    # inner-digest-plus-nonce string to the generalized forger reproduces
    # the round-stopping forger's error vector
    msk, mpk = mcfsc_keys
    ident = BitMatrix.identity(msk.code.n_minus_k)
    _, tpk = SCHEMES["tilde"].from_parts(
        msk.code, msk.perm, ident, w=mpk.w, encoder_id="regular", hash_id="md-stopped"
    )
    rng = random.Random(410)
    for _ in range(20):
        msg = rng.randbytes(24)
        f1 = forge_mcfsc(msg, mpk, rng)
        chained = md_hash(msg, mpk.cfg).to_bytes() + _counter_bytes(f1.signature.nonce, mpk.r)
        f2 = forge_tilde(chained, tpk)
        assert f2.signature.error == f1.signature.error


def test_attacks_touch_no_secret_machinery():
    # the attack module must stay compilable against public data only
    source = inspect.getsource(attacks_module)
    for forbidden in ("SecretKey", "patterson", "goppa_keygen", "scrambler"):
        assert forbidden not in source
    assert not any("Secret" in name for name in dir(attacks_module))


def test_recover_permutation_round_trips():
    for trial in range(30):
        code = goppa_keygen(4, 3, random.Random(500 + trial))
        p = Permutation.random(16, random.Random(600 + trial))
        rec = recover_permutation(code.h, code.permuted_h(p))
        assert rec.perm == p
        assert not rec.ambiguous
        assert rec.comparisons <= 16 * 16


def test_recover_permutation_identity():
    code = goppa_keygen(4, 3, random.Random(411))
    rec = recover_permutation(code.h, code.h)
    assert rec.perm == Permutation.identity(16)
    assert not rec.ambiguous


def test_recover_permutation_duplicate_columns_flagged():
    rng = random.Random(412)
    # two equal columns: any consistent pairing is fine but must be flagged
    rows = [rng.getrandbits(6) for _ in range(5)]
    base = BitMatrix(5, 6, [(r & ~1) | ((r >> 1) & 1) for r in rows])  # col0 = col1
    p = Permutation.random(6, rng)
    rec = recover_permutation(base, permute_columns(base, p))
    assert rec.ambiguous
    assert permute_columns(base, rec.perm) == permute_columns(base, p)


def test_recover_permutation_rejects_unrelated():
    code = goppa_keygen(4, 3, random.Random(413))
    other = goppa_keygen(4, 3, random.Random(414))
    with pytest.raises(NoPermutationError):
        recover_permutation(code.h, other.h)
    with pytest.raises(NoPermutationError):
        recover_permutation(code.h, BitMatrix.identity(12))


def test_forgery_record_shape(mcfsc_keys):
    _, pk = mcfsc_keys
    f = forge_mcfsc(b"\x01\x02", pk, random.Random(415))
    rec = forgery_record("mcfsc", f, True)
    assert set(rec) == {"scheme", "msg_hex", "signature_hex", "verified", "cost"}
    assert rec["msg_hex"] == "0102"
    assert rec["verified"] is True
    assert set(rec["cost"]) == {"compressions", "matvecs", "decode_calls"}
