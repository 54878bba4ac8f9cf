"""Code-based Merkle-Damgard hashing and weight-bounded syndrome hashing.

The compression function selects one column per column-block of a parity
check matrix: an s-bit state splits into w chunks, chunk i picks column
(chunk + 1) within block i, and the output is the XOR of the picked
columns.  Equivalently it is the syndrome of the "regular word" of the
state: the weight-w vector with exactly one bit per block.

Conventions the paper-free file formats rely on:
  * message bytes enter the bit stream most significant bit first;
  * padding is a 1 bit, zero fill, then a 64-bit big-endian bit length,
    rounding up to a whole number of s-bit blocks;
  * chunks are read big-endian within the state;
  * the initial state is all zeros;
  * combine(chain, block) truncates or zero-extends the chain value to
    s bits and XORs the block into it.

The chain runs on ints packed like a BitVector (bit i = coordinate i).
`_padded_blocks` builds the padded stream as one such int and reads it
back eight blocks at a time: eight s-bit blocks are exactly s bytes, so
each group is one `int.from_bytes` and eight shift-and-mask steps, for
every s.  `md_final_state` XORs each block into the state.  Each
compression is one call of the module-level `compress`, and no other
Python function runs per block but its `tick_compression`, so metering and
anything that wraps `compress` see every block: the state goes in through
the slots of an unchecked BitVector (`linalg._bitvector`, inlined) and the
r-bit output's `_bits` come back masked to their low s bits, which is the
truncation when r > s and the zero extension when r < s.  `compress` reads
the state's chunks c = log2(l) bits at a time from the low end, i.e.
little-endian, through per-block pick lists that HashConfig builds once:
`_picks[i][v]` is column i*l + rev(v), where rev reverses the c bits of v,
so the big-endian chunk convention costs no work per block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .errors import BadParameters, DimensionError, WeightBoundViolation
from .linalg import _BITREV, BitMatrix, BitVector, _bitvector, _set_bits, _set_n, mat_vec
from .metering import tick_compression

_new = object.__new__


class HashConfig:
    """Parameters of the code-based hash: the matrix plus the block split."""

    def __init__(self, h_matrix: BitMatrix, w: int):
        n = h_matrix.cols
        if w < 1:
            raise BadParameters(f"block count w={w} must be at least 1")
        if n % w:
            raise BadParameters(f"block count w={w} must divide n={n}")
        l = n // w
        if l < 2 or l & (l - 1):
            raise BadParameters(f"block size n/w={l} must be a power of two >= 2")
        self.h = h_matrix
        self.n = n
        self.w = w
        self.l = l
        self.chunk_bits = l.bit_length() - 1
        self.s = w * self.chunk_bits
        self.r = h_matrix.rows
        # rev[v] is v with its chunk_bits bits reversed: the big-endian
        # read of a chunk.  From k to k + 1 bits every reversal shifts up
        # one place, and v + 2^k also gains a low 1
        rev = [0]
        for _ in range(self.chunk_bits):
            rev = [v << 1 for v in rev] + [v << 1 | 1 for v in rev]
        self._rev = rev
        # _picks[i][v]: the column that block i selects when the state's
        # chunk i, read little-endian, is v
        columns = h_matrix.columns()
        pick = itemgetter(*rev)
        self._picks = [pick(columns[i * l : (i + 1) * l]) for i in range(w)]

    def __repr__(self) -> str:
        return f"HashConfig(n={self.n}, w={self.w}, s={self.s}, r={self.r})"


def split(x: BitVector, cfg: HashConfig) -> tuple[int, ...]:
    """The s-bit state as w integers in [0, l), big-endian per chunk."""
    if x.n != cfg.s:
        raise DimensionError(f"state must be {cfg.s} bits, got {x.n}")
    bits = x.to_int()
    c = cfg.chunk_bits
    mask = cfg.l - 1
    return tuple(cfg._rev[(bits >> (i * c)) & mask] for i in range(cfg.w))


def regular_word(x: BitVector, cfg: HashConfig) -> BitVector:
    """Injective embedding of an s-bit state as a weight-w word with one
    set bit per length-l block: block i carries its bit at offset split(x)[i]."""
    acc = 0
    for i, chunk in enumerate(split(x, cfg)):
        acc |= 1 << (i * cfg.l + chunk)
    return BitVector(cfg.n, acc)


def compress(x: BitVector, cfg: HashConfig) -> BitVector:
    """One column XOR per block; equals the syndrome of regular_word(x)."""
    if x.n != cfg.s:
        raise DimensionError(f"state must be {cfg.s} bits, got {x.n}")
    tick_compression()
    bits = x._bits
    c = cfg.chunk_bits
    mask = cfg.l - 1
    acc = 0
    for picks in cfg._picks:
        acc ^= picks[bits & mask]
        bits >>= c
    out = _new(BitVector)  # linalg._bitvector, inlined
    _set_n(out, cfg.r)
    _set_bits(out, acc)
    return out


def _padded_blocks(msg: bytes, cfg: HashConfig) -> list[int]:
    """Message bits, then 1, zero fill and a 64-bit length, as s-bit blocks
    packed like a BitVector's int.

    The stream is one int packed the same way, built by the byte codec of
    `linalg`, and its little-endian bytes list stream bits 8j..8j+7 in byte
    j.  Eight s-bit blocks span exactly s bytes, so the stream is read one
    s-byte group at a time: one `int.from_bytes` per group, then eight
    shift-and-mask steps, whatever s is.  The last group is zero-filled and
    its blocks past the stream's end are dropped.
    """
    s = cfg.s
    nbits = 8 * len(msg)
    pos = nbits + 1 + (-(nbits + 65)) % s  # where the length field starts
    acc = BitVector.from_bytes(msg, nbits).to_int() | 1 << nbits
    acc |= BitVector.from_bytes(nbits.to_bytes(8, "big"), 64).to_int() << pos
    count = (pos + 64) // s
    data = acc.to_bytes(s * -(-count // 8), "little")
    mask = (1 << s) - 1
    shifts = range(0, 8 * s, s)
    groups = [int.from_bytes(data[i : i + s], "little") for i in range(0, len(data), s)]
    return [group >> shift & mask for group in groups for shift in shifts][:count]


def md_hash(msg: bytes, cfg: HashConfig) -> BitVector:
    """Full Merkle-Damgard digest: r bits."""
    return compress(md_final_state(msg, cfg), cfg)


def md_final_state(msg: bytes, cfg: HashConfig) -> BitVector:
    """The last chaining state, i.e. the digest pipeline halted just before
    its final compression: s bits."""
    s = cfg.s
    mask = (1 << s) - 1
    blocks = iter(_padded_blocks(msg, cfg))
    state = next(blocks)  # the all-zero initial state XOR the first block
    for block in blocks:
        x = _new(BitVector)  # linalg._bitvector, inlined
        _set_n(x, s)
        _set_bits(x, state)
        # the module-level compress, looked up per block: a wrapper sees each one
        state = (compress(x, cfg)._bits & mask) ^ block
    return _bitvector(s, state)


def digest_bits(data: bytes, nbits: int) -> BitVector:
    """SHA-256 in counter mode (block i hashes data || i, 4 bytes big-endian),
    truncated to exactly nbits; up to 256 bits that is one SHA-256 call."""
    if nbits <= 256:
        out = hashlib.sha256(data + b"\0\0\0\0").digest().translate(_BITREV)
        return _bitvector(nbits, int.from_bytes(out, "little") & ((1 << nbits) - 1))
    out = b"".join(
        hashlib.sha256(data + i.to_bytes(4, "big")).digest() for i in range((nbits + 255) // 256)
    )
    return BitVector.from_bytes(out[: (nbits + 7) // 8], nbits)


@dataclass(frozen=True)
class BoundedWeightEncoder:
    """A map from s-bit states to n-bit words of weight at most max_weight;
    every call enforces the bound (WeightBoundViolation)."""

    name: str
    max_weight: int
    fn: Callable[[BitVector], BitVector]

    def __call__(self, x: BitVector) -> BitVector:
        word = self.fn(x)
        if word.weight > self.max_weight:
            raise WeightBoundViolation(
                f"encoder {self.name!r} produced weight {word.weight} > {self.max_weight}"
            )
        return word


def registered(registry: dict, key: str, kind: str):
    """registry[key]; an unknown key raises BadParameters."""
    try:
        return registry[key]
    except KeyError:
        raise BadParameters(f"unknown {kind} {key!r}") from None


def _regular(cfg: HashConfig, t: int):
    if cfg.w > t:
        raise BadParameters(f"regular encoder has weight {cfg.w} > bound {t}")
    return lambda x: regular_word(x, cfg)


def _digits(cfg: HashConfig, t: int):
    n = cfg.n
    return lambda x: BitVector.from_indices(n, {x.to_int() // n**i % n for i in range(t)})


# encoder id -> build(cfg, t), the word map of the encoder bounded by t:
#   regular -- the one-bit-per-block embedding (weight exactly w; needs w <= t)
#   digits  -- base-n digits of the state select up to t positions
#   zero    -- the constant zero word (degenerate but within every bound)
ENCODERS = {
    "regular": _regular,
    "digits": _digits,
    "zero": lambda cfg, t: lambda x: BitVector.zeros(cfg.n),
}


def make_encoder(encoder_id: str, cfg: HashConfig, t: int) -> BoundedWeightEncoder:
    build = registered(ENCODERS, encoder_id, "encoder id")
    return BoundedWeightEncoder(encoder_id, t, build(cfg, t))


def syndrome_hash(
    msg: bytes,
    h_matrix: BitMatrix,
    encoder: BoundedWeightEncoder,
    inner_hash: Callable[[bytes], BitVector],
) -> BitVector:
    """Hash into the decodable-syndrome set: H * encoder(inner_hash(msg)).

    The encoder's weight bound is what guarantees decodability; the encoder
    enforces it on every call (WeightBoundViolation).
    """
    return mat_vec(h_matrix, encoder(inner_hash(msg)))
