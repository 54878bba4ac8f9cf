import dataclasses
import random

import pytest

from cfslab import schemes
from cfslab.attacks import forge_mcfsc, forgery_record
from cfslab.codehash import md_hash
from cfslab.errors import AttemptLimitExceeded, BadParameters, DecodingInvariantError
from cfslab.gf2m import GF2m
from cfslab.goppa import GoppaCode, goppa_keygen, patterson_decode
from cfslab.linalg import (
    BitMatrix,
    BitVector,
    Permutation,
    inverse,
    mat_mul,
    mat_vec,
    rand_invertible,
)
from cfslab.metering import count_operations
from cfslab.schemes import (
    SCHEMES,
    CfsPublicKey,
    CfsSignature,
    McfsSignature,
    TildeSignature,
    chained_digest,
    counter_width,
    cfs_keygen,
    cfs_sign,
    cfs_verify,
    mcfs_sign,
    mcfs_verify,
    mcfsc_keygen,
    mcfsc_sign,
    mcfsc_verify,
    message_hash,
    SecretKey,
    tilde_keygen,
    tilde_sign,
    tilde_verify,
    _counter_bytes,
)

from oracles import as_matrix, permute_columns, rootless_quadratic


@pytest.fixture(scope="module")
def cfs_keys():
    return cfs_keygen(4, 3, random.Random(301))


@pytest.fixture(scope="module")
def mcfsc_keys():
    return mcfsc_keygen(4, 3, 2, random.Random(302))


@pytest.fixture(scope="module")
def tilde_keys():
    return tilde_keygen(4, 3, 2, random.Random(303))


# --- cfs ---------------------------------------------------------------


def test_cfs_keygen_shapes():
    sk, pk = cfs_keygen(4, 2, random.Random(304))
    assert pk.h_pub.rows == 8 and pk.h_pub.cols == 16
    assert mat_mul(sk.scrambler, inverse(sk.scrambler)) == BitMatrix.identity(8)


def _header_fields(scheme):
    return {"w": 2} if "w" in scheme.header else {}


@pytest.mark.parametrize("name", SCHEMES)
def test_identity_parts_give_bare_h(name):
    scheme = SCHEMES[name]
    code = goppa_keygen(4, 3, random.Random(305))
    ident = BitMatrix.identity(code.n_minus_k)
    perm = Permutation.identity(code.n)
    s = (ident,) if scheme.scrambled else ()
    sk, pk = scheme.from_parts(code, perm, *s, **_header_fields(scheme))
    assert pk.h_pub == code.h
    assert sk.pk is pk
    # a scrambler goes with exactly the scrambled schemes
    wrong = () if scheme.scrambled else (ident,)
    with pytest.raises(BadParameters):
        scheme.from_parts(code, perm, *wrong, **_header_fields(scheme))


@pytest.mark.parametrize("name", SCHEMES)
def test_from_parts_rejects_what_no_key_can_be(name):
    scheme, rng = SCHEMES[name], random.Random(306)
    fields = _header_fields(scheme)

    def parts(code):
        s = (rand_invertible(code.n_minus_k, rng),) if scheme.scrambled else ()
        return (code, Permutation.random(code.n, rng), *s)

    field = GF2m(5)
    code = goppa_keygen(5, 3, rng)
    # 24 of the 32 field elements: a key could sign, but H_pub would not
    # have the 2^m columns every public key has
    with pytest.raises(BadParameters):
        scheme.from_parts(*parts(GoppaCode(code.g, code.support[:24])), **fields)
    # g = q^2 has no root in the field, but no code, and so no key, has it
    q = rootless_quadratic(field)
    with pytest.raises(BadParameters, match="not irreducible"):
        GoppaCode(q * q, field.elements())
    if scheme.scrambled:
        singular = BitMatrix(15, 15, [1] * 15)
        with pytest.raises(BadParameters, match="singular"):
            scheme.from_parts(code, Permutation.random(32, rng), singular, **fields)


@pytest.mark.parametrize("name", SCHEMES)
def test_keygen_keeps_its_public_key(name):
    scheme = SCHEMES[name]
    sk, pk = scheme.keygen(4, 3, random.Random(306), **_header_fields(scheme))
    assert sk.pk is pk
    assert (sk.scrambler is not None) == scheme.scrambled
    assert pk.h_pub.rows == sk.code.n_minus_k


def test_cfs_key_algebra_round_trip(cfs_keys):
    sk, pk = cfs_keys
    # S^-1 * H_pub * P^-1 recovers the structured matrix
    recovered = permute_columns(mat_mul(inverse(sk.scrambler), pk.h_pub), sk.perm.inverse())
    assert recovered == sk.code.h


def test_cfs_sign_verify_round_trip(cfs_keys):
    sk, pk = cfs_keys
    rng = random.Random(306)
    for _ in range(40):
        msg = rng.randbytes(rng.randrange(0, 50))
        sig = cfs_sign(msg, sk)
        assert sig.error.weight <= pk.t
        assert cfs_verify(msg, sig, pk)


def test_cfs_sign_is_deterministic(cfs_keys):
    sk, _ = cfs_keys
    assert cfs_sign(b"fixed message", sk) == cfs_sign(b"fixed message", sk)


def test_cfs_correctness_chain_term_by_term(cfs_keys):
    sk, pk = cfs_keys
    msg = b"chain check"
    sig = cfs_sign(msg, sk)
    a = message_hash(msg, sig.counter, sk.code.n_minus_k)
    # the digest the signer decoded
    e = patterson_decode(sk.code, mat_vec(inverse(sk.scrambler), a))
    assert e is not None
    # S * H * e = digest
    assert mat_vec(mat_mul(sk.scrambler, sk.code.h), e) == a
    # permuting the error and the columns cancels
    u = sk.perm.apply(e)
    assert u == sig.error
    assert mat_vec(pk.h_pub, u) == a
    assert cfs_verify(msg, sig, pk)


def test_cfs_verify_rejects_mutations(cfs_keys):
    sk, pk = cfs_keys
    msg = b"mutation target"
    sig = cfs_sign(msg, sk)
    rng = random.Random(307)
    for _ in range(100):
        flipped = CfsSignature(sig.counter, sig.error.flip(rng.randrange(16)))
        assert not cfs_verify(msg, flipped, pk)
    assert not cfs_verify(msg, CfsSignature(sig.counter + 1, sig.error), pk)
    assert not cfs_verify(b"other message", sig, pk)


def test_cfs_verify_weight_gate(cfs_keys):
    sk, pk = cfs_keys
    # weight t+1 forged from a syndrome match attempt must be rejected
    heavy = BitVector.from_indices(16, [0, 1, 2, 3])
    assert heavy.weight == pk.t + 1
    sig = CfsSignature(0, heavy)
    assert not cfs_verify(b"m", sig, pk)


def test_cfs_attempt_cap(cfs_keys):
    sk, _ = cfs_keys
    with pytest.raises(AttemptLimitExceeded):
        cfs_sign(b"any", sk, max_attempts=0)
    sig = cfs_sign(b"any", sk)
    assert sig.counter > 0  # pinned: the first digest does not decode
    with pytest.raises(AttemptLimitExceeded):
        cfs_sign(b"any", sk, max_attempts=sig.counter)
    assert cfs_sign(b"any", sk, max_attempts=sig.counter + 1) == sig
    # mcfs: the same cap over fresh nonces, at one seed
    with count_operations() as ops:
        sig = mcfs_sign(b"any", sk, random.Random(5))
    assert ops.decode_calls > 1
    with pytest.raises(AttemptLimitExceeded):
        mcfs_sign(b"any", sk, random.Random(5), max_attempts=ops.decode_calls - 1)
    assert mcfs_sign(b"any", sk, random.Random(5), max_attempts=ops.decode_calls) == sig


def test_cfs_mean_attempts_near_t_factorial(cfs_keys):
    sk, _ = cfs_keys
    rng = random.Random(308)
    attempts = [cfs_sign(rng.randbytes(16), sk).counter + 1 for _ in range(150)]
    mean = sum(attempts) / len(attempts)
    assert 3.5 < mean < 9.0  # loose unit-level gate; acceptance pins [4.5, 7.5]


# --- mcfs --------------------------------------------------------------


def test_mcfs_round_trip_and_nonce_freshness(cfs_keys):
    sk, pk = cfs_keys
    rng = random.Random(309)
    nonces = set()
    for _ in range(40):
        msg = rng.randbytes(20)
        sig = mcfs_sign(msg, sk, rng)
        assert mcfs_verify(msg, sig, pk)
        nonces.add(sig.nonce)
    assert len(nonces) > 35  # overwhelmingly distinct in a 2^12 space


def test_mcfs_two_signatures_differ(cfs_keys):
    sk, _ = cfs_keys
    rng = random.Random(310)
    s1 = mcfs_sign(b"same message", sk, rng)
    s2 = mcfs_sign(b"same message", sk, rng)
    assert s1.nonce != s2.nonce


def test_mcfs_wrong_nonce_rejected(cfs_keys):
    sk, pk = cfs_keys
    rng = random.Random(311)
    msg = b"nonce check"
    sig = mcfs_sign(msg, sk, rng)
    assert not mcfs_verify(msg, McfsSignature(sig.nonce ^ 3, sig.error), pk)


def test_mcfs_nonce_range(cfs_keys):
    sk, _ = cfs_keys
    rng = random.Random(312)
    for _ in range(50):
        sig = mcfs_sign(b"range", sk, rng)
        assert 1 <= sig.nonce <= 1 << 12


# --- mcfsc -------------------------------------------------------------


def test_mcfsc_keygen_parameters():
    rng = random.Random(313)
    sk, pk = mcfsc_keygen(4, 3, 2, rng)
    assert (pk.cfg.s, pk.cfg.r) == (6, 12)
    with pytest.raises(BadParameters):
        mcfsc_keygen(4, 3, 3, random.Random(1))  # w = t
    with pytest.raises(BadParameters):
        mcfsc_keygen(4, 2, 2, random.Random(1))  # w = t again
    code = goppa_keygen(4, 3, random.Random(2))
    with pytest.raises(BadParameters):
        # w must divide n: 16 % 3 != 0 (rejected by the hash config)
        SCHEMES["mcfsc"].from_parts(code, Permutation.identity(16), w=3)


@pytest.mark.parametrize("keygen", [mcfsc_keygen, tilde_keygen], ids=["mcfsc", "tilde"])
@pytest.mark.parametrize("w", [0, -2])
def test_block_count_below_one_is_refused_as_such(keygen, w):
    with pytest.raises(BadParameters, match=f"^block count w={w} must be at least 1$"):
        keygen(4, 3, w, random.Random(1))


def test_mcfsc_public_matrix_has_no_scrambler(mcfsc_keys):
    sk, pk = mcfsc_keys
    assert pk.h_pub == sk.code.permuted_h(sk.perm) == permute_columns(sk.code.h, sk.perm)
    assert pk.h_pub == mat_mul(sk.code.h, as_matrix(sk.perm))


def test_mcfsc_sign_single_decode_weight_w(mcfsc_keys):
    sk, pk = mcfsc_keys
    rng = random.Random(314)
    for _ in range(40):
        msg = rng.randbytes(rng.randrange(0, 40))
        with count_operations() as ops:
            sig = mcfsc_sign(msg, sk, rng)
        assert ops.decode_calls == 1  # never retries
        assert sig.error.weight == pk.w  # the digest's unique preimage is regular
        assert mcfsc_verify(msg, sig, pk)


def test_mcfsc_verify_rejects_error_mutations(mcfsc_keys):
    sk, pk = mcfsc_keys
    rng = random.Random(315)
    msg = b"mcfsc mutation"
    sig = mcfsc_sign(msg, sk, rng)
    for i in range(16):
        assert not mcfsc_verify(msg, McfsSignature(sig.nonce, sig.error.flip(i)), pk)


def test_mcfsc_verify_rejects_wrong_message(mcfsc_keys):
    # At s=6 the chain state is 6 bits, so digests of different messages
    # collide often; this pair is pinned as non-colliding.  Rejection
    # statistics live in the acceptance mutation criterion at larger s.
    sk, pk = mcfsc_keys
    assert md_hash(b"message one", pk.cfg) != md_hash(b"message 3", pk.cfg)
    sig = mcfsc_sign(b"message one", sk, random.Random(316))
    assert not mcfsc_verify(b"message 3", sig, pk)


# --- tilde -------------------------------------------------------------


def test_tilde_round_trip_default(tilde_keys):
    sk, pk = tilde_keys
    rng = random.Random(317)
    for _ in range(40):
        msg = rng.randbytes(rng.randrange(0, 40))
        with count_operations() as ops:
            sig = tilde_sign(msg, sk)
        assert ops.decode_calls == 1
        assert sig.error.weight <= pk.t
        assert tilde_verify(msg, sig, pk)


@pytest.mark.parametrize("encoder_id,hash_id", [("digits", "sha256"), ("regular", "sha256"), ("digits", "md-stopped")])
def test_tilde_round_trip_other_registrations(encoder_id, hash_id):
    sk, pk = tilde_keygen(4, 3, 2, random.Random(318), encoder_id=encoder_id, hash_id=hash_id)
    rng = random.Random(319)
    for _ in range(25):
        msg = rng.randbytes(20)
        sig = tilde_sign(msg, sk)
        assert tilde_verify(msg, sig, pk)


def test_tilde_verify_rejects_mutations(tilde_keys):
    sk, pk = tilde_keys
    msg = b"tilde mutation"
    sig = tilde_sign(msg, sk)
    for i in range(16):
        assert not tilde_verify(msg, TildeSignature(sig.error.flip(i)), pk)


def test_tilde_reproduces_mcfsc_signing(mcfsc_keys):
    # same code and permutation, identity scrambler, regular encoder and
    # the stopped chain: signing the inner-digest-plus-nonce string gives
    # the identical error vector
    msk, mpk = mcfsc_keys
    ident = BitMatrix.identity(msk.code.n_minus_k)
    tsk, tpk = SCHEMES["tilde"].from_parts(
        msk.code, msk.perm, ident, w=mpk.w, encoder_id="regular", hash_id="md-stopped"
    )
    assert tpk.h_pub == mpk.h_pub
    rng = random.Random(320)
    for _ in range(20):
        msg = rng.randbytes(24)
        msig = mcfsc_sign(msg, msk, rng)
        chained = md_hash(msg, mpk.cfg).to_bytes() + _counter_bytes(msig.nonce, mpk.r)
        tsig = tilde_sign(chained, tsk)
        assert tsig.error == msig.error


@pytest.mark.parametrize(
    "keys,sign",
    [
        ("mcfsc_keys", lambda msg, sk: mcfsc_sign(msg, sk, random.Random(331))),
        ("tilde_keys", tilde_sign),
    ],
    ids=["mcfsc", "tilde"],
)
def test_single_decode_signers_raise_when_the_digest_does_not_decode(
    request, monkeypatch, keys, sign
):
    # every key signs for its own public key, so a single-decode digest is
    # decodable by construction; only a decoder that fails reaches the branch
    sk, _ = request.getfixturevalue(keys)
    sign(b"one decode", sk)
    monkeypatch.setattr(schemes, "patterson_decode", lambda code, s: None)
    with pytest.raises(DecodingInvariantError, match="digest failed to decode"):
        sign(b"one decode", sk)


# each scheme's public signer, called the way the CLI's table signer is
API_SIGNERS = {
    "cfs": lambda msg, sk, rng: cfs_sign(msg, sk),
    "mcfs": mcfs_sign,
    "mcfsc": mcfsc_sign,
    "tilde": lambda msg, sk, rng: tilde_sign(msg, sk),
}


@pytest.mark.parametrize("name", SCHEMES)
def test_table_signer_is_the_api_signer(name):
    scheme = SCHEMES[name]
    sk, pk = scheme.keygen(4, 3, random.Random(332), **_header_fields(scheme))
    for i in range(10):
        msg = b"one loop %d" % i
        sig = scheme.sign(msg, sk, random.Random(333 + i))
        assert sig == API_SIGNERS[name](msg, sk, random.Random(333 + i))
        assert isinstance(sig, scheme.signature) and scheme.verify(msg, sig, pk)


def test_weight_gate_all_four_verifiers(cfs_keys, mcfsc_keys, tilde_keys):
    heavy = BitVector.from_indices(16, [0, 1, 2, 3])  # weight t+1
    _, cpk = cfs_keys
    _, mpk = mcfsc_keys
    _, tpk = tilde_keys
    assert not cfs_verify(b"m", CfsSignature(0, heavy), cpk)
    assert not mcfs_verify(b"m", McfsSignature(1, heavy), cpk)
    assert not mcfsc_verify(b"m", McfsSignature(1, heavy), mpk)
    assert not tilde_verify(b"m", TildeSignature(heavy), tpk)


def test_verifiers_return_false_for_any_signature_value(cfs_keys, mcfsc_keys, tilde_keys):
    _, cpk = cfs_keys
    _, mpk = mcfsc_keys
    _, tpk = tilde_keys
    error = BitVector.zeros(16)
    odd = [None, 7, "sig", TildeSignature(None), TildeSignature(b"\x00\x00"), CfsSignature(0, None)]
    for verify, pk, wrong in (
        (cfs_verify, cpk, McfsSignature(1, error)),
        (mcfs_verify, cpk, CfsSignature(1, error)),
        (mcfsc_verify, mpk, TildeSignature(error)),
        (tilde_verify, tpk, CfsSignature(0, None)),
    ):
        for sig in [*odd, wrong]:
            assert verify(b"m", sig, pk) is False


# counters and nonces the 8-byte hashed field cannot hold, plus non-integers
UNENCODABLE_COUNTERS = [-5, -1, 1 << 64, (1 << 64) + 5, 1 << 100, 1.0, "7", None]


@pytest.mark.parametrize("counter", UNENCODABLE_COUNTERS)
def test_cfs_verify_rejects_unencodable_counter(cfs_keys, counter):
    sk, pk = cfs_keys
    sig = cfs_sign(b"total", sk)
    assert cfs_verify(b"total", sig, pk)
    assert cfs_verify(b"total", CfsSignature(counter, sig.error), pk) is False


@pytest.mark.parametrize("nonce", UNENCODABLE_COUNTERS)
def test_mcfs_verify_rejects_unencodable_nonce(cfs_keys, nonce):
    sk, pk = cfs_keys
    sig = mcfs_sign(b"total", sk, random.Random(317))
    assert mcfs_verify(b"total", sig, pk)
    assert mcfs_verify(b"total", McfsSignature(nonce, sig.error), pk) is False


@pytest.mark.parametrize("nonce", UNENCODABLE_COUNTERS)
def test_mcfsc_verify_rejects_unencodable_nonce(mcfsc_keys, nonce):
    sk, pk = mcfsc_keys
    sig = mcfsc_sign(b"total", sk, random.Random(318))
    assert mcfsc_verify(b"total", sig, pk)
    assert mcfsc_verify(b"total", McfsSignature(nonce, sig.error), pk) is False


def test_largest_encodable_counter_verifies(cfs_keys, mcfsc_keys):
    top = (1 << 64) - 1
    sk, pk = cfs_keys
    for i in range(1000):  # about 1 in t! = 6 digests decodes
        msg = b"top %d" % i
        digest = message_hash(msg, top, pk.h_pub.rows)
        e = patterson_decode(sk.code, mat_vec(inverse(sk.scrambler), digest))
        if e is not None:
            break
    error = sk.perm.apply(e)
    assert cfs_verify(msg, CfsSignature(top, error), pk)
    assert mcfs_verify(msg, McfsSignature(top, error), pk)
    msk, mpk = mcfsc_keys
    e = patterson_decode(msk.code, chained_digest(b"top", top, mpk.cfg))
    assert mcfsc_verify(b"top", McfsSignature(top, msk.perm.apply(e)), mpk)


# --- the secret key's S and the counter-scheme hash --------------------


@pytest.mark.parametrize("name", ["cfs", "mcfs", "tilde"])
def test_a_key_built_directly_signs(name):
    # S^-1 is read off S, so a key made without from_parts unscrambles its
    # digests too; so does one whose S is a fresh copy with no cached inverse
    scheme = SCHEMES[name]
    sk, pk = scheme.keygen(5, 3, random.Random(1), **_header_fields(scheme))
    s = sk.scrambler
    copy = BitMatrix(s.rows, s.cols, [s.row(i).to_int() for i in range(s.rows)])
    rng = random.Random(2)
    for scrambler in (s, copy):
        key = SecretKey(scheme, sk.code, sk.perm, scrambler, sk.fields)
        assert key.pk == pk
        for i in range(10):
            msg = b"direct %d" % i
            sig = scheme.sign(msg, key, rng)
            assert scheme.verify(msg, sig, pk)


def test_singular_scrambler_refused_however_the_key_is_made(tilde_keys):
    sk, pk = tilde_keys
    singular = BitMatrix(12, 12, [1] * 12)
    with pytest.raises(BadParameters, match="scrambler is singular"):
        SecretKey(sk.scheme, sk.code, sk.perm, singular, sk.fields)
    with pytest.raises(BadParameters, match="scrambler is singular"):
        dataclasses.replace(sk, scrambler=singular)
    # an invertible S makes a new key, with the public key of its own parts
    key = dataclasses.replace(sk, scrambler=rand_invertible(12, random.Random(3)))
    assert key.pk.h_pub == mat_mul(key.scrambler, sk.code.permuted_h(sk.perm)) != pk.h_pub
    for i in range(5):
        msg = b"rescrambled %d" % i
        assert tilde_verify(msg, tilde_sign(msg, key), key.pk)


# --- a secret key makes its own public key ------------------------------


REPLACEMENTS = {
    "code": lambda rng: goppa_keygen(5, 3, rng),
    "perm": lambda rng: Permutation.random(32, rng),
    "scrambler": lambda rng: rand_invertible(15, rng),
}


@pytest.mark.parametrize("part", REPLACEMENTS)
@pytest.mark.parametrize("name", ["cfs", "tilde"])
def test_every_replaced_part_remakes_the_public_key(name, part):
    # every signature of the new key verifies under the key's own pk
    scheme = SCHEMES[name]
    sk, pk = scheme.keygen(5, 3, random.Random(1), **_header_fields(scheme))
    key = dataclasses.replace(sk, **{part: REPLACEMENTS[part](random.Random(9))})
    assert getattr(key, part) != getattr(sk, part)
    h_pub = mat_mul(key.scrambler, key.code.permuted_h(key.perm))
    assert key.pk.h_pub == h_pub != pk.h_pub
    rng = random.Random(10)
    for i in range(20):
        msg = b"replaced %d" % i
        assert scheme.verify(msg, scheme.sign(msg, key, rng), key.pk)


@pytest.mark.parametrize("name", SCHEMES)
def test_a_key_built_directly_makes_keygens_public_key(name):
    scheme = SCHEMES[name]
    sk, pk = scheme.keygen(4, 3, random.Random(306), **_header_fields(scheme))
    fields = tuple((f, getattr(pk, f)) for f in scheme.header)
    key = SecretKey(scheme, sk.code, sk.perm, sk.scrambler, fields[::-1])
    assert key.pk.h_pub == pk.h_pub and key.pk == pk
    # the fields are read back off pk, defaults included, in header order,
    # so the two keys are equal however their fields were given
    assert key == sk and key.fields == sk.fields == fields


def test_a_key_built_directly_has_a_scrambler_iff_its_scheme_scrambles():
    code = goppa_keygen(4, 3, random.Random(305))
    perm, ident = Permutation.identity(code.n), BitMatrix.identity(code.n_minus_k)
    with pytest.raises(BadParameters, match="^cfs needs scrambler$"):
        SecretKey(SCHEMES["cfs"], code, perm)
    with pytest.raises(BadParameters, match="^cfs needs scrambler$"):
        SCHEMES["cfs"].from_parts(code, perm)
    with pytest.raises(BadParameters, match="^mcfsc takes no scrambler$"):
        SecretKey(SCHEMES["mcfsc"], code, perm, ident, (("w", 2),))
    with pytest.raises(BadParameters, match="^mcfsc takes no scrambler$"):
        SCHEMES["mcfsc"].from_parts(code, perm, ident, w=2)
    # a field the scheme does not have is refused, not dropped
    with pytest.raises(TypeError):
        SCHEMES["cfs"].from_parts(code, perm, ident, w=2)


def test_counter_schemes_take_sha256_only(cfs_keys):
    _, pk = cfs_keys
    assert pk.hash_id == "sha256"
    for hash_id in ("md-stopped", "md5", None):
        with pytest.raises(BadParameters, match="unknown generic hash id"):
            CfsPublicKey(pk.h_pub, pk.t, hash_id=hash_id)


# --- n-k > 64: the counter/nonce field widens --------------------------


def test_counter_width():
    # 8 bytes up to n-k = 64, then the bytes that hold the largest nonce 2^(n-k)
    assert [counter_width(r) for r in (12, 40, 64, 65, 66, 70, 71, 72)] == [8, 8, 8, 9, 9, 9, 9, 10]
    for r in range(65, 200):
        assert (1 << r).bit_length() <= 8 * counter_width(r) < (1 << r).bit_length() + 8


@pytest.fixture(scope="module")
def wide_mcfsc_keys():
    return mcfsc_keygen(7, 10, 2, random.Random(340))  # n-k = 70


def test_mcfsc_sign_verify_forge_wide_nonce(wide_mcfsc_keys):
    sk, pk = wide_mcfsc_keys
    assert pk.r == 70
    rng = random.Random(341)
    for i in range(5):
        msg = b"wide %d" % i
        sig = mcfsc_sign(msg, sk, rng)
        assert mcfsc_verify(msg, sig, pk)
        assert not mcfsc_verify(msg + b"!", sig, pk)
        forgery = forge_mcfsc(msg, pk, rng)
        assert mcfsc_verify(msg, forgery.signature, pk)
        record = forgery_record("mcfsc", forgery, True)
        nonce_hex = record["signature_hex"][: 2 * counter_width(70)]
        assert int(nonce_hex, 16) == forgery.signature.nonce
        assert len(record["signature_hex"]) == 2 * (counter_width(70) + 128 // 8)


def test_wide_nonce_gate(wide_mcfsc_keys):
    sk, pk = wide_mcfsc_keys
    top = (1 << 72) - 1  # the largest value a 9-byte field holds
    e = patterson_decode(sk.code, chained_digest(b"top", top, pk.cfg))
    sig = McfsSignature(top, sk.perm.apply(e))
    assert mcfsc_verify(b"top", sig, pk)
    for nonce in (-1, 1 << 72, 1 << 100):
        assert mcfsc_verify(b"top", McfsSignature(nonce, sig.error), pk) is False


def test_mcfs_and_cfs_sign_verify_wide_nonce():
    sk, pk = cfs_keygen(11, 6, random.Random(342))  # n-k = 66
    assert pk.h_pub.rows == 66
    sig = mcfs_sign(b"wide", sk, random.Random(343))
    assert mcfs_verify(b"wide", sig, pk)
    assert not mcfs_verify(b"wide", McfsSignature(sig.nonce ^ 1, sig.error), pk)
    sig = cfs_sign(b"wide", sk)
    assert cfs_verify(b"wide", sig, pk)
    assert not cfs_verify(b"wide", CfsSignature(sig.counter + 1, sig.error), pk)
