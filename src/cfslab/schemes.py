"""The four signature schemes: counter-based (cfs), nonce-based (mcfs),
the code-hash variant with no scrambler (mcfsc), and the generalized
encoder-based variant (tilde).

The schemes differ only in how the digest that H_pub * e must match is
formed.  `SCHEMES` maps each name to a `Scheme` record holding that digest,
the signer, the key constructors and what the scheme's files carry; every
verifier is one shared gate plus digest == H_pub * e, from public data only.
Counters and nonces are bound into the hash as big-endian fields of
`counter_width(n-k)` bytes so that message/counter splits are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .codehash import (
    BoundedWeightEncoder,
    HashConfig,
    digest_bits,
    md_final_state,
    md_hash,
    make_encoder,
    syndrome_hash,
)
from .errors import (
    AttemptLimitExceeded,
    BadParameters,
    DecodingInvariantError,
)
from .goppa import GoppaCode, goppa_keygen, patterson_decode
from .linalg import BitMatrix, BitVector, Permutation, mat_mul, mat_vec, rand_invertible

HASH_IDS = ("sha256", "md-stopped")

# generic digests usable as the counter-scheme hash h; output width is a
# free parameter, so anything XOF-like fits
GENERIC_HASHES = {"sha256": digest_bits}

DEFAULT_ATTEMPT_CAP = 1 << 20


def counter_width(r: int) -> int:
    """Bytes of the hashed counter or nonce field for a code with n-k = r:
    8, widened when r > 64 to the bytes that hold the largest nonce 2^r."""
    return 8 if r <= 64 else (r + 8) // 8


def _counter_bytes(value: int, r: int) -> bytes:
    return value.to_bytes(counter_width(r), "big")


def _encodable_counter(value, r: int) -> bool:
    """Whether a signature's counter or nonce fits the hashed field; the
    verifiers reject any other value instead of raising."""
    return isinstance(value, int) and 0 <= value < 1 << (8 * counter_width(r))


def draw_nonce(rng, r: int) -> int:
    """A fresh nonce, uniform in [1, 2^r]."""
    return rng.randrange(1, (1 << r) + 1)


def message_hash(msg: bytes, counter: int, nbits: int, hash_id: str = "sha256") -> BitVector:
    """The generic signing hash h(msg || counter), nbits wide."""
    try:
        fn = GENERIC_HASHES[hash_id]
    except KeyError:
        raise BadParameters(f"unknown generic hash id {hash_id!r}") from None
    return fn(msg + _counter_bytes(counter, nbits), nbits)


# --------------------------------------------------------------------------
# cfs / mcfs: scrambled keys, generic hash, retry loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CfsPublicKey:
    h_pub: BitMatrix
    t: int
    hash_id: str

    def __post_init__(self):
        if self.hash_id not in GENERIC_HASHES:
            raise BadParameters(f"unknown generic hash id {self.hash_id!r}")


@dataclass(frozen=True)
class CfsSecretKey:
    code: GoppaCode
    scrambler: BitMatrix
    scrambler_inv: BitMatrix
    perm: Permutation
    hash_id: str

    @property
    def t(self) -> int:
        return self.code.t


@dataclass(frozen=True)
class CfsSignature:
    counter: int
    error: BitVector


@dataclass(frozen=True)
class McfsSignature:
    nonce: int
    error: BitVector


@dataclass(frozen=True)
class TildeSignature:
    error: BitVector


def cfs_keys_from_parts(
    code: GoppaCode,
    scrambler: BitMatrix,
    scrambler_inv: BitMatrix,
    perm: Permutation,
    hash_id: str = "sha256",
) -> tuple[CfsSecretKey, CfsPublicKey]:
    pk = CfsPublicKey(perm.permute_columns(mat_mul(scrambler, code.h)), code.t, hash_id)
    sk = CfsSecretKey(code, scrambler, scrambler_inv, perm, hash_id)
    return sk, pk


def cfs_keygen(m: int, t: int, rng, hash_id: str = "sha256") -> tuple[CfsSecretKey, CfsPublicKey]:
    """Goppa code, random scrambler S and permutation P; public H = S*H*P."""
    code = goppa_keygen(m, t, rng)
    s, s_inv = rand_invertible(code.n_minus_k, rng)
    perm = Permutation.random(code.n, rng)
    return cfs_keys_from_parts(code, s, s_inv, perm, hash_id)


def _decode_scrambled(sk: CfsSecretKey, digest: BitVector) -> BitVector | None:
    return patterson_decode(sk.code, mat_vec(sk.scrambler_inv, digest))


def _sign_retry(msg: bytes, sk: CfsSecretKey, counters, signature, max_attempts: int):
    r = sk.code.n_minus_k
    for counter in counters:
        e = _decode_scrambled(sk, message_hash(msg, counter, r, sk.hash_id))
        if e is not None:
            return signature(counter, sk.perm.apply(e))
    raise AttemptLimitExceeded(f"no decodable digest in {max_attempts} attempts")


def cfs_sign(msg: bytes, sk: CfsSecretKey, max_attempts: int = DEFAULT_ATTEMPT_CAP) -> CfsSignature:
    """Increment a counter from 0 until the digest decodes; deterministic."""
    return _sign_retry(msg, sk, range(max_attempts), CfsSignature, max_attempts)


def cfs_verify(msg: bytes, sig: CfsSignature, pk: CfsPublicKey) -> bool:
    return CFS.verify(msg, sig, pk)


def mcfs_sign(
    msg: bytes, sk: CfsSecretKey, rng, max_attempts: int = DEFAULT_ATTEMPT_CAP
) -> McfsSignature:
    """Like cfs_sign but with a fresh random nonce per attempt."""
    r = sk.code.n_minus_k
    nonces = (draw_nonce(rng, r) for _ in range(max_attempts))
    return _sign_retry(msg, sk, nonces, McfsSignature, max_attempts)


def mcfs_verify(msg: bytes, sig: McfsSignature, pk: CfsPublicKey) -> bool:
    return MCFS.verify(msg, sig, pk)


# --------------------------------------------------------------------------
# mcfsc: public H = H*P (no scrambler), digests from the code-based hash
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class McfscPublicKey:
    h_pub: BitMatrix
    t: int
    w: int
    cfg: HashConfig

    def __post_init__(self):
        if not 1 <= self.w < self.t:
            raise BadParameters(f"block count w={self.w} must be less than t={self.t}")

    @property
    def r(self) -> int:
        return self.h_pub.rows


@dataclass(frozen=True)
class McfscSecretKey:
    code: GoppaCode
    perm: Permutation
    w: int
    cfg: HashConfig  # built on the public matrix; signing hashes with it

    @property
    def t(self) -> int:
        return self.code.t


def mcfsc_keys_from_parts(code: GoppaCode, perm: Permutation, w: int) -> tuple[McfscSecretKey, McfscPublicKey]:
    h_pub = perm.permute_columns(code.h)
    # HashConfig validates divisibility and the power-of-two block size
    pk = McfscPublicKey(h_pub, code.t, w, HashConfig(h_pub, w))
    sk = McfscSecretKey(code, perm, w, pk.cfg)
    return sk, pk


def mcfsc_keygen(m: int, t: int, w: int, rng) -> tuple[McfscSecretKey, McfscPublicKey]:
    code = goppa_keygen(m, t, rng)
    perm = Permutation.random(code.n, rng)
    return mcfsc_keys_from_parts(code, perm, w)


def chained_digest(msg: bytes, nonce: int, cfg: HashConfig) -> BitVector:
    """h(h(msg) || nonce) with the inner digest re-entering as plain bytes."""
    inner = md_hash(msg, cfg)
    return md_hash(inner.to_bytes() + _counter_bytes(nonce, cfg.r), cfg)


def mcfsc_sign(msg: bytes, sk: McfscSecretKey, rng) -> McfsSignature:
    """Single decode, no retry: the digest is a weight-w syndrome by
    construction, and w < t keeps it inside the decoder's reach."""
    nonce = draw_nonce(rng, sk.code.n_minus_k)
    digest = chained_digest(msg, nonce, sk.cfg)
    # H_pub = H*P, so the digest is, bit for bit, also a syndrome under H
    # (of the un-permuted error); it can be decoded directly.
    e = patterson_decode(sk.code, digest)
    if e is None:
        raise DecodingInvariantError("a weight-w syndrome failed to decode")
    return McfsSignature(nonce, sk.perm.apply(e))


def mcfsc_verify(msg: bytes, sig: McfsSignature, pk: McfscPublicKey) -> bool:
    return MCFSC.verify(msg, sig, pk)


# --------------------------------------------------------------------------
# tilde: scrambled keys, digest = H_pub * encoder(inner_hash(msg))
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TildePublicKey:
    h_pub: BitMatrix
    t: int
    w: int
    hash_id: str
    encoder_id: str
    cfg: HashConfig

    def __post_init__(self):
        tilde_encoder(self)  # resolve both ids eagerly
        tilde_inner_hash(self.hash_id, self.cfg)


@dataclass(frozen=True)
class TildeSecretKey:
    code: GoppaCode
    scrambler: BitMatrix
    scrambler_inv: BitMatrix
    perm: Permutation
    w: int
    hash_id: str
    encoder_id: str
    cfg: HashConfig

    @property
    def t(self) -> int:
        return self.code.t


def tilde_inner_hash(hash_id: str, cfg: HashConfig):
    """Resolve the inner hash: the stopped code-based chain, or a generic
    digest truncated to the state length."""
    if hash_id == "md-stopped":
        return lambda msg: md_final_state(msg, cfg)
    if hash_id == "sha256":
        return lambda msg: digest_bits(msg, cfg.s)
    raise BadParameters(f"unknown hash id {hash_id!r}")


def tilde_encoder(pk_or_sk) -> BoundedWeightEncoder:
    return make_encoder(pk_or_sk.encoder_id, pk_or_sk.cfg, pk_or_sk.t)


def tilde_keys_from_parts(
    code: GoppaCode,
    scrambler: BitMatrix,
    scrambler_inv: BitMatrix,
    perm: Permutation,
    w: int,
    encoder_id: str = "regular",
    hash_id: str = "md-stopped",
) -> tuple[TildeSecretKey, TildePublicKey]:
    h_pub = perm.permute_columns(mat_mul(scrambler, code.h))
    pk = TildePublicKey(h_pub, code.t, w, hash_id, encoder_id, HashConfig(h_pub, w))
    sk = TildeSecretKey(code, scrambler, scrambler_inv, perm, w, hash_id, encoder_id, pk.cfg)
    return sk, pk


def tilde_keygen(
    m: int,
    t: int,
    w: int,
    rng,
    encoder_id: str = "regular",
    hash_id: str = "md-stopped",
) -> tuple[TildeSecretKey, TildePublicKey]:
    code = goppa_keygen(m, t, rng)
    s, s_inv = rand_invertible(code.n_minus_k, rng)
    perm = Permutation.random(code.n, rng)
    return tilde_keys_from_parts(code, s, s_inv, perm, w, encoder_id, hash_id)


def tilde_digest(msg: bytes, key) -> BitVector:
    """The scheme's message digest: H_pub * encoder(inner_hash(msg))."""
    inner = tilde_inner_hash(key.hash_id, key.cfg)
    return syndrome_hash(msg, key.cfg.h, tilde_encoder(key), inner)


def tilde_sign(msg: bytes, sk: TildeSecretKey) -> TildeSignature:
    """Single decode of the unscrambled digest; the encoder's weight bound
    guarantees a preimage exists."""
    digest = tilde_digest(msg, sk)
    e = patterson_decode(sk.code, mat_vec(sk.scrambler_inv, digest))
    if e is None:
        raise DecodingInvariantError("a weight-bounded syndrome failed to decode")
    return TildeSignature(sk.perm.apply(e))


def tilde_verify(msg: bytes, sig: TildeSignature, pk: TildePublicKey) -> bool:
    return TILDE.verify(msg, sig, pk)


# --------------------------------------------------------------------------
# the scheme table
# --------------------------------------------------------------------------


def _gate(counter: str | None, sig, pk) -> bool:
    """What every verifier checks before the digest: an n-bit error of
    weight at most t and, if the scheme has one, a counter or nonce that
    the hashed field can hold.  False, not an exception, for any value."""
    error = getattr(sig, "error", None)
    if not isinstance(error, BitVector) or error.n != pk.h_pub.cols or error.weight > pk.t:
        return False
    return counter is None or _encodable_counter(getattr(sig, counter, None), pk.h_pub.rows)


@dataclass(frozen=True)
class Scheme:
    """Everything that tells one scheme from another.

    counter     the signature's counter field: "counter", "nonce" or None
    header      the key attributes a key file stores after m and t, an
                ordered subset of ("w", "hash_id", "encoder_id")
    scrambled   whether the key carries a scrambler S
    signature   the signature type: signature(error=e, **{counter: c})
    keygen      keygen(m=, t=, rng=, **header fields); absent fields default
    from_parts  from_parts(code=, perm=, [scrambler=, scrambler_inv=,]
                **header fields) -> (sk, pk)
    public_key  public_key(h_pub, t, **header fields) -> pk
    sign        sign(msg, sk, rng) -> signature
    digest      digest(msg, sig, pk): what H_pub * sig.error must equal
    """

    name: str
    counter: str | None
    header: tuple[str, ...]
    scrambled: bool
    signature: type
    keygen: Callable
    from_parts: Callable
    public_key: Callable
    sign: Callable
    digest: Callable

    def verify(self, msg: bytes, sig, pk) -> bool:
        if not _gate(self.counter, sig, pk):
            return False
        return self.digest(msg, sig, pk) == mat_vec(pk.h_pub, sig.error)


CFS = Scheme(
    "cfs", "counter", ("hash_id",), True, CfsSignature,
    keygen=cfs_keygen,
    from_parts=cfs_keys_from_parts,
    public_key=CfsPublicKey,
    sign=lambda msg, sk, rng: cfs_sign(msg, sk),
    digest=lambda msg, sig, pk: message_hash(msg, sig.counter, pk.h_pub.rows, pk.hash_id),
)
MCFS = Scheme(
    "mcfs", "nonce", ("hash_id",), True, McfsSignature,
    keygen=cfs_keygen,
    from_parts=cfs_keys_from_parts,
    public_key=CfsPublicKey,
    sign=mcfs_sign,
    digest=lambda msg, sig, pk: message_hash(msg, sig.nonce, pk.h_pub.rows, pk.hash_id),
)
MCFSC = Scheme(
    "mcfsc", "nonce", ("w",), False, McfsSignature,
    keygen=mcfsc_keygen,
    from_parts=mcfsc_keys_from_parts,
    public_key=lambda h_pub, t, w: McfscPublicKey(h_pub, t, w, HashConfig(h_pub, w)),
    sign=mcfsc_sign,
    digest=lambda msg, sig, pk: chained_digest(msg, sig.nonce, pk.cfg),
)
TILDE = Scheme(
    "tilde", None, ("w", "hash_id", "encoder_id"), True, TildeSignature,
    keygen=tilde_keygen,
    from_parts=tilde_keys_from_parts,
    public_key=lambda h_pub, t, w, hash_id, encoder_id: TildePublicKey(
        h_pub, t, w, hash_id, encoder_id, HashConfig(h_pub, w)
    ),
    sign=lambda msg, sk, rng: tilde_sign(msg, sk),
    digest=lambda msg, sig, pk: tilde_digest(msg, pk),
)
SCHEMES = {s.name: s for s in (CFS, MCFS, MCFSC, TILDE)}
