"""The four signature schemes: counter-based (cfs), nonce-based (mcfs),
the code-hash variant with no scrambler (mcfsc), and the generalized
encoder-based variant (tilde).

The schemes differ only in how the digest that H_pub * e must match is
formed.  `SCHEMES` maps each name to a `Scheme` record holding that digest,
the public-key type and what the scheme's files carry.  One signing loop,
`Scheme.sign`, and one verifier, `Scheme.verify`, both read the record's
digest.  `Scheme.verify` holds the one gate every signature passes before
its digest's packed int is compared with H_pub * e (one `mat_vec`, t column
XORs).  Counters and nonces are bound into the hash as big-endian fields of
`counter_width(n-k)` bytes so that message/counter splits are unambiguous.

cfs and mcfs hash with SHA-256 (`message_hash`), one call of it for any
n-k <= 256 (`digest_bits`); their key files keep a `hash_id` line, which
must read "sha256".  A `SecretKey` builds its own public key from its code,
P and S, never takes one, so a key made by keygen, a key file, direct
construction or `dataclasses.replace` signs for its pk; S is checked before
H * P is built.  S^-1 stays on S (`linalg.inverse`): one elimination per S,
read by every signature.
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
    registered,
    syndrome_hash,
)
from .errors import AttemptLimitExceeded, BadParameters, DecodingInvariantError, DimensionError
from .goppa import GoppaCode, check_parameters, goppa_keygen, patterson_decode
from .linalg import BitMatrix, BitVector, Permutation, inverse, mat_mul, mat_vec, rand_invertible

DEFAULT_ATTEMPT_CAP = 1 << 20


def counter_width(r: int) -> int:
    """Bytes of the hashed counter or nonce field for a code with n-k = r:
    8, widened when r > 64 to the bytes that hold the largest nonce 2^r."""
    return 8 if r <= 64 else (r + 8) // 8


def _counter_bytes(value: int, r: int) -> bytes:
    return value.to_bytes(counter_width(r), "big")


def draw_nonce(rng, r: int) -> int:
    """A fresh nonce, uniform in [1, 2^r]."""
    return rng.randrange(1, (1 << r) + 1)


def message_hash(msg: bytes, counter: int, nbits: int) -> BitVector:
    """The counter-scheme hash h(msg || counter), nbits of SHA-256."""
    return digest_bits(msg + counter.to_bytes(counter_width(nbits), "big"), nbits)


def _check_shape(h_pub: BitMatrix, t: int) -> None:
    """What every public key is: H_pub of a whole-field Goppa code, with
    m*t rows and 2^m columns for an (m, t) `check_parameters` accepts."""
    m = h_pub.rows // max(t, 1)
    check_parameters(m, t)
    if h_pub.rows != m * t or h_pub.cols != 1 << m:
        raise BadParameters(f"H_pub is {h_pub.rows} x {h_pub.cols}, not m*t x 2^m at t={t}")


@dataclass(frozen=True)
class SecretKey:
    """A scheme's Goppa trapdoor: the code, the permutation P, S if the
    scheme scrambles, and the header fields as (name, value) pairs.  The
    constructor, and so `dataclasses.replace`, builds the public key `pk`
    from them, checking in this order:
    1. S is present iff the scheme scrambles (BadParameters);
    2. S is (n-k) x (n-k) (DimensionError) and invertible (BadParameters),
       its inverse kept on S, so a bad S costs no H * P;
    3. H_pub = S * (H * P), or H * P without S (`GoppaCode.permuted_h`:
       DimensionError unless P has n coordinates);
    4. pk = scheme.public_key_type(H_pub, t, **fields), which checks
       H_pub's shape and the fields (BadParameters); `fields` then holds
       pk's, defaults included, in `scheme.header` order."""

    scheme: Scheme
    code: GoppaCode
    perm: Permutation
    scrambler: BitMatrix | None = None
    fields: tuple[tuple[str, object], ...] = ()
    pk: CfsPublicKey | McfscPublicKey | TildePublicKey = field(init=False, compare=False)

    def __post_init__(self):
        s, scheme, r = self.scrambler, self.scheme, self.code.n_minus_k
        if (s is None) == scheme.scrambled:
            raise BadParameters(f"{scheme.name} {'needs' if s is None else 'takes no'} scrambler")
        if s is not None:
            if s.rows != r or s.cols != r:
                raise DimensionError(f"scrambler is {s.rows} x {s.cols}, not {r} x {r}")
            if inverse(s) is None:
                raise BadParameters("scrambler is singular")
        h_pub = self.code.permuted_h(self.perm)
        if s is not None:
            h_pub = mat_mul(s, h_pub)
        pk = scheme.public_key_type(h_pub, self.code.t, **dict(self.fields))
        object.__setattr__(self, "pk", pk)
        object.__setattr__(self, "fields", tuple((f, getattr(pk, f)) for f in scheme.header))


# --------------------------------------------------------------------------
# cfs / mcfs: scrambled keys, generic hash, retry loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CfsPublicKey:
    h_pub: BitMatrix
    t: int
    hash_id: str = "sha256"

    def __post_init__(self):
        _check_shape(self.h_pub, self.t)
        if self.hash_id != "sha256":
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


def cfs_keygen(m: int, t: int, rng) -> tuple[SecretKey, CfsPublicKey]:
    """Goppa code, random scrambler S and permutation P; public H = S*H*P."""
    return CFS.keygen(m, t, rng)


def cfs_sign(msg: bytes, sk: SecretKey, max_attempts: int = DEFAULT_ATTEMPT_CAP) -> CfsSignature:
    """Increment a counter from 0 until the digest decodes; deterministic."""
    return CFS.sign(msg, sk, None, max_attempts)


def cfs_verify(msg: bytes, sig: CfsSignature, pk: CfsPublicKey) -> bool:
    return CFS.verify(msg, sig, pk)


def mcfs_sign(
    msg: bytes, sk: SecretKey, rng, max_attempts: int = DEFAULT_ATTEMPT_CAP
) -> McfsSignature:
    """Like cfs_sign but with a fresh random nonce per attempt."""
    return MCFS.sign(msg, sk, rng, max_attempts)


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
        _check_shape(self.h_pub, self.t)
        if self.w >= self.t:
            raise BadParameters(f"block count w={self.w} must be less than t={self.t}")
        # HashConfig validates w >= 1, divisibility and the power-of-two block size
        object.__setattr__(self, "cfg", HashConfig(self.h_pub, self.w))

    @property
    def r(self) -> int:
        return self.h_pub.rows


def mcfsc_keygen(m: int, t: int, w: int, rng) -> tuple[SecretKey, McfscPublicKey]:
    return MCFSC.keygen(m, t, rng, w=w)


def chain_input(msg: bytes, nonce: int, cfg: HashConfig) -> bytes:
    """h(msg) || nonce, the inner digest re-entering as plain bytes."""
    return md_hash(msg, cfg).to_bytes() + _counter_bytes(nonce, cfg.r)


def chained_digest(msg: bytes, nonce: int, cfg: HashConfig) -> BitVector:
    """h(h(msg) || nonce)."""
    return md_hash(chain_input(msg, nonce, cfg), cfg)


def mcfsc_sign(msg: bytes, sk: SecretKey, rng) -> McfsSignature:
    """Single decode, no retry: the digest is a weight-w syndrome by
    construction, and w < t keeps it inside the decoder's reach."""
    return MCFSC.sign(msg, sk, rng)


def mcfsc_verify(msg: bytes, sig: McfsSignature, pk: McfscPublicKey) -> bool:
    return MCFSC.verify(msg, sig, pk)


# --------------------------------------------------------------------------
# tilde: scrambled keys, digest = H_pub * encoder(inner_hash(msg))
# --------------------------------------------------------------------------


# tilde hash id -> inner_hash(msg, cfg), s bits; the lambdas look the hash
# up at call time, so a patched module global is seen
INNER_HASHES = {
    "sha256": lambda msg, cfg: digest_bits(msg, cfg.s),
    "md-stopped": lambda msg, cfg: md_final_state(msg, cfg),
}


@dataclass(frozen=True)
class TildePublicKey:
    """Besides cfg, the key resolves its encoder and its inner hash
    (`INNER_HASHES[hash_id]`) once."""

    h_pub: BitMatrix
    t: int
    w: int
    hash_id: str = "md-stopped"
    encoder_id: str = "regular"
    cfg: HashConfig = field(init=False, repr=False, compare=False)
    encoder: BoundedWeightEncoder = field(init=False, repr=False, compare=False)
    inner_hash: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_shape(self.h_pub, self.t)
        cfg = HashConfig(self.h_pub, self.w)
        inner = registered(INNER_HASHES, self.hash_id, "hash id")
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "encoder", make_encoder(self.encoder_id, cfg, self.t))
        object.__setattr__(self, "inner_hash", lambda msg: inner(msg, cfg))


def tilde_keygen(
    m: int,
    t: int,
    w: int,
    rng,
    encoder_id: str = "regular",
    hash_id: str = "md-stopped",
) -> tuple[SecretKey, TildePublicKey]:
    return TILDE.keygen(m, t, rng, w=w, encoder_id=encoder_id, hash_id=hash_id)


def tilde_sign(msg: bytes, sk: SecretKey) -> TildeSignature:
    """Single decode of the unscrambled digest; the encoder's weight bound
    guarantees a preimage exists."""
    return TILDE.sign(msg, sk, None)


def tilde_verify(msg: bytes, sig: TildeSignature, pk: TildePublicKey) -> bool:
    return TILDE.verify(msg, sig, pk)


# --------------------------------------------------------------------------
# the scheme table
# --------------------------------------------------------------------------


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
    retries     whether signing tries counters until a digest decodes (cfs,
                mcfs) or decodes once, its digest decodable by construction
    digest      digest(msg, c, pk): what H_pub * sig.error must equal for
                the counter or nonce c (tilde ignores c)

    Every scheme's secret key is a `SecretKey`; `keygen` draws its parts.
    `sign` and `verify` both go through `digest`.
    """

    name: str
    counter: str | None
    header: tuple[str, ...]
    scrambled: bool
    signature: type
    public_key_type: type
    retries: bool
    digest: Callable

    def from_parts(self, code: GoppaCode, perm: Permutation, scrambler=None, **fields):
        """(sk, sk.pk) of the `SecretKey` these parts make."""
        sk = SecretKey(self, code, perm, scrambler, tuple(fields.items()))
        return sk, sk.pk

    def keygen(self, m: int, t: int, rng, **fields):
        """Draws the code, then S (if the scheme scrambles), then P: the RNG
        order every seeded key depends on."""
        code = goppa_keygen(m, t, rng)
        s = rand_invertible(code.n_minus_k, rng) if self.scrambled else None
        perm = Permutation.random(code.n, rng)
        return self.from_parts(code, perm, s, **fields)

    def sign(self, msg: bytes, sk: SecretKey, rng, max_attempts: int = DEFAULT_ATTEMPT_CAP):
        """Decode the digest, unscrambled if the key has S, for each counter
        in turn and permute the error by P.  cfs counts 0, 1, ...; mcfs draws
        a nonce per attempt, mcfsc one nonce; tilde has none."""
        counters = range(max_attempts if self.retries else 1)
        if self.counter == "nonce":
            counters = (draw_nonce(rng, sk.code.n_minus_k) for _ in counters)
        s_inv = None if sk.scrambler is None else inverse(sk.scrambler)
        for c in counters:
            digest = self.digest(msg, c, sk.pk)
            if s_inv is not None:
                digest = mat_vec(s_inv, digest)
            e = patterson_decode(sk.code, digest)
            if e is not None:
                fields = {} if self.counter is None else {self.counter: c}
                return self.signature(error=sk.perm.apply(e), **fields)
        if self.retries:
            raise AttemptLimitExceeded(f"no decodable digest in {max_attempts} attempts")
        raise DecodingInvariantError(f"a {self.name} digest failed to decode")

    def verify(self, msg: bytes, sig, pk) -> bool:
        """digest == H_pub * e, from public data only, behind the one gate:
        an n-bit error of weight at most t and, if the scheme has one, a
        counter or nonce that the hashed field can hold.  False, not an
        exception, for any signature value."""
        h_pub, error = pk.h_pub, getattr(sig, "error", None)
        if not isinstance(error, BitVector) or error.n != h_pub.cols or error.weight > pk.t:
            return False
        c = None
        if self.counter is not None:
            c = getattr(sig, self.counter, None)
            if not isinstance(c, int) or not 0 <= c < 1 << 8 * counter_width(h_pub.rows):
                return False
        return self.digest(msg, c, pk)._bits == mat_vec(h_pub, error)._bits


CFS = Scheme(
    "cfs", "counter", ("hash_id",), True, CfsSignature, CfsPublicKey,
    retries=True, digest=lambda msg, c, pk: message_hash(msg, c, pk.h_pub.rows),
)
MCFS = Scheme(
    "mcfs", "nonce", ("hash_id",), True, McfsSignature, CfsPublicKey,
    retries=True, digest=lambda msg, c, pk: message_hash(msg, c, pk.h_pub.rows),
)
MCFSC = Scheme(
    "mcfsc", "nonce", ("w",), False, McfsSignature, McfscPublicKey,
    retries=False, digest=lambda msg, c, pk: chained_digest(msg, c, pk.cfg),
)
TILDE = Scheme(
    "tilde", None, ("w", "hash_id", "encoder_id"), True, TildeSignature, TildePublicKey,
    retries=False,
    digest=lambda msg, c, pk: syndrome_hash(msg, pk.h_pub, pk.encoder, pk.inner_hash),
)
SCHEMES = {s.name: s for s in (CFS, MCFS, MCFSC, TILDE)}
