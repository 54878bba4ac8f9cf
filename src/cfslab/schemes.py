"""The four signature schemes: counter-based (cfs), nonce-based (mcfs),
the code-hash variant with no scrambler (mcfsc), and the generalized
encoder-based variant (tilde).

The schemes differ only in how the digest that H_pub * e must match is
formed.  `SCHEMES` maps each name to a `Scheme` record holding that digest,
the signer, the public-key type and what the scheme's files carry; every
verifier is one shared gate plus digest == H_pub * e, from public data only.
Counters and nonces are bound into the hash as big-endian fields of
`counter_width(n-k)` bytes so that message/counter splits are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SecretKey:
    """The Goppa trapdoor every scheme shares: the code, the permutation P
    and, if the scheme scrambles, S and its inverse.  The scheme's header
    fields and hash configuration are read off the public key `pk`."""

    code: GoppaCode
    perm: Permutation
    pk: CfsPublicKey | McfscPublicKey | TildePublicKey
    scrambler: BitMatrix | None = None
    scrambler_inv: BitMatrix | None = None


def _decode_scrambled(sk: SecretKey, digest: BitVector) -> BitVector | None:
    return patterson_decode(sk.code, mat_vec(sk.scrambler_inv, digest))


# --------------------------------------------------------------------------
# cfs / mcfs: scrambled keys, generic hash, retry loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CfsPublicKey:
    h_pub: BitMatrix
    t: int
    hash_id: str = "sha256"

    def __post_init__(self):
        if self.hash_id not in GENERIC_HASHES:
            raise BadParameters(f"unknown generic hash id {self.hash_id!r}")


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
) -> tuple[SecretKey, CfsPublicKey]:
    return CFS.from_parts(code, perm, scrambler, scrambler_inv, hash_id=hash_id)


def cfs_keygen(m: int, t: int, rng, hash_id: str = "sha256") -> tuple[SecretKey, CfsPublicKey]:
    """Goppa code, random scrambler S and permutation P; public H = S*H*P."""
    return CFS.keygen(m, t, rng, hash_id=hash_id)


def _sign_retry(msg: bytes, sk: SecretKey, counters, signature, max_attempts: int):
    r = sk.code.n_minus_k
    for counter in counters:
        e = _decode_scrambled(sk, message_hash(msg, counter, r, sk.pk.hash_id))
        if e is not None:
            return signature(counter, sk.perm.apply(e))
    raise AttemptLimitExceeded(f"no decodable digest in {max_attempts} attempts")


def cfs_sign(msg: bytes, sk: SecretKey, max_attempts: int = DEFAULT_ATTEMPT_CAP) -> CfsSignature:
    """Increment a counter from 0 until the digest decodes; deterministic."""
    return _sign_retry(msg, sk, range(max_attempts), CfsSignature, max_attempts)


def cfs_verify(msg: bytes, sig: CfsSignature, pk: CfsPublicKey) -> bool:
    return CFS.verify(msg, sig, pk)


def mcfs_sign(
    msg: bytes, sk: SecretKey, rng, max_attempts: int = DEFAULT_ATTEMPT_CAP
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
    cfg: HashConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.w < self.t:
            raise BadParameters(f"block count w={self.w} must be less than t={self.t}")
        # HashConfig validates divisibility and the power-of-two block size
        object.__setattr__(self, "cfg", HashConfig(self.h_pub, self.w))

    @property
    def r(self) -> int:
        return self.h_pub.rows


def mcfsc_keys_from_parts(code: GoppaCode, perm: Permutation, w: int) -> tuple[SecretKey, McfscPublicKey]:
    return MCFSC.from_parts(code, perm, w=w)


def mcfsc_keygen(m: int, t: int, w: int, rng) -> tuple[SecretKey, McfscPublicKey]:
    return MCFSC.keygen(m, t, rng, w=w)


def chained_digest(msg: bytes, nonce: int, cfg: HashConfig) -> BitVector:
    """h(h(msg) || nonce) with the inner digest re-entering as plain bytes."""
    inner = md_hash(msg, cfg)
    return md_hash(inner.to_bytes() + _counter_bytes(nonce, cfg.r), cfg)


def mcfsc_sign(msg: bytes, sk: SecretKey, rng) -> McfsSignature:
    """Single decode, no retry: the digest is a weight-w syndrome by
    construction, and w < t keeps it inside the decoder's reach."""
    nonce = draw_nonce(rng, sk.code.n_minus_k)
    digest = chained_digest(msg, nonce, sk.pk.cfg)
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
    """Besides cfg, the key resolves its encoder and its inner hash once:
    the stopped code-based chain, or a generic digest truncated to the
    state length."""

    h_pub: BitMatrix
    t: int
    w: int
    hash_id: str = "md-stopped"
    encoder_id: str = "regular"
    cfg: HashConfig = field(init=False, repr=False, compare=False)
    encoder: BoundedWeightEncoder = field(init=False, repr=False, compare=False)
    inner_hash: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg = HashConfig(self.h_pub, self.w)
        if self.hash_id == "md-stopped":
            inner = lambda msg: md_final_state(msg, cfg)
        elif self.hash_id == "sha256":
            inner = lambda msg: digest_bits(msg, cfg.s)
        else:
            raise BadParameters(f"unknown hash id {self.hash_id!r}")
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "encoder", make_encoder(self.encoder_id, cfg, self.t))
        object.__setattr__(self, "inner_hash", inner)


def tilde_keys_from_parts(
    code: GoppaCode,
    scrambler: BitMatrix,
    scrambler_inv: BitMatrix,
    perm: Permutation,
    w: int,
    encoder_id: str = "regular",
    hash_id: str = "md-stopped",
) -> tuple[SecretKey, TildePublicKey]:
    fields = {"w": w, "encoder_id": encoder_id, "hash_id": hash_id}
    return TILDE.from_parts(code, perm, scrambler, scrambler_inv, **fields)


def tilde_keygen(
    m: int,
    t: int,
    w: int,
    rng,
    encoder_id: str = "regular",
    hash_id: str = "md-stopped",
) -> tuple[SecretKey, TildePublicKey]:
    return TILDE.keygen(m, t, rng, w=w, encoder_id=encoder_id, hash_id=hash_id)


def tilde_digest(msg: bytes, pk: TildePublicKey) -> BitVector:
    """The scheme's message digest: H_pub * encoder(inner_hash(msg))."""
    return syndrome_hash(msg, pk.cfg.h, pk.encoder, pk.inner_hash)


def tilde_sign(msg: bytes, sk: SecretKey) -> TildeSignature:
    """Single decode of the unscrambled digest; the encoder's weight bound
    guarantees a preimage exists."""
    e = _decode_scrambled(sk, tilde_digest(msg, sk.pk))
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
    scrambled   whether the key carries a scrambler S: H_pub = S*H*P, else H*P
    signature   the signature type: signature(error=e, **{counter: c})
    public_key_type
                public_key_type(h_pub, t, **header fields) -> pk; absent
                fields take its defaults
    sign        sign(msg, sk, rng) -> signature
    digest      digest(msg, sig, pk): what H_pub * sig.error must equal

    Every scheme's secret key is a `SecretKey` built by `from_parts`, and
    `keygen` draws its parts.
    """

    name: str
    counter: str | None
    header: tuple[str, ...]
    scrambled: bool
    signature: type
    public_key_type: type
    sign: Callable
    digest: Callable

    def from_parts(
        self, code: GoppaCode, perm: Permutation, scrambler=None, scrambler_inv=None, **fields
    ):
        """(sk, pk) from a code, a permutation P, S and S^-1 if the scheme
        scrambles, and the header fields."""
        if (scrambler is None) == self.scrambled:
            need = "needs" if self.scrambled else "takes no"
            raise BadParameters(f"{self.name} {need} scrambler")
        h = code.h if scrambler is None else mat_mul(scrambler, code.h)
        pk = self.public_key_type(perm.permute_columns(h), code.t, **fields)
        return SecretKey(code, perm, pk, scrambler, scrambler_inv), pk

    def keygen(self, m: int, t: int, rng, **fields):
        """Draws the code, then S (if the scheme scrambles), then P: the RNG
        order every seeded key depends on."""
        code = goppa_keygen(m, t, rng)
        s = rand_invertible(code.n_minus_k, rng) if self.scrambled else ()
        perm = Permutation.random(code.n, rng)
        return self.from_parts(code, perm, *s, **fields)

    def verify(self, msg: bytes, sig, pk) -> bool:
        if not _gate(self.counter, sig, pk):
            return False
        return self.digest(msg, sig, pk) == mat_vec(pk.h_pub, sig.error)


CFS = Scheme(
    "cfs", "counter", ("hash_id",), True, CfsSignature, CfsPublicKey,
    sign=lambda msg, sk, rng: cfs_sign(msg, sk),
    digest=lambda msg, sig, pk: message_hash(msg, sig.counter, pk.h_pub.rows, pk.hash_id),
)
MCFS = Scheme(
    "mcfs", "nonce", ("hash_id",), True, McfsSignature, CfsPublicKey,
    sign=mcfs_sign,
    digest=lambda msg, sig, pk: message_hash(msg, sig.nonce, pk.h_pub.rows, pk.hash_id),
)
MCFSC = Scheme(
    "mcfsc", "nonce", ("w",), False, McfsSignature, McfscPublicKey,
    sign=mcfsc_sign,
    digest=lambda msg, sig, pk: chained_digest(msg, sig.nonce, pk.cfg),
)
TILDE = Scheme(
    "tilde", None, ("w", "hash_id", "encoder_id"), True, TildeSignature, TildePublicKey,
    sign=lambda msg, sk, rng: tilde_sign(msg, sk),
    digest=lambda msg, sig, pk: tilde_digest(msg, pk),
)
SCHEMES = {s.name: s for s in (CFS, MCFS, MCFSC, TILDE)}
