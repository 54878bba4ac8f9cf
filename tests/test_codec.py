"""The byte codec and the Merkle-Damgard chain against references.

`BitVector.from_bytes`/`to_bytes` and `codehash._padded_blocks` compute the
MSB-first bit order with a bit-reversal table and Python's int codec (the
padding reads its stream eight blocks, i.e. s bytes, at a time), and
`md_final_state` runs the chain on ints through `compress`'s pick lists.
The reference functions below follow each convention as it is stated: the
codec and the padding one bit at a time, and the compression chunk by chunk
off the columns of H.  Every case must agree with them.
"""

import random

import pytest

from cfslab.codehash import HashConfig, _padded_blocks, compress, md_final_state, md_hash
from cfslab.errors import DimensionError
from cfslab.linalg import BitMatrix, BitVector


def ref_from_bytes(data: bytes, n: int) -> int:
    """Coordinate i is bit 7 - (i & 7) of byte i >> 3; pad bits are ignored."""
    acc = 0
    for i in range(n):
        if data[i >> 3] >> (7 - (i & 7)) & 1:
            acc |= 1 << i
    return acc


def ref_to_bytes(bits: int, n: int) -> bytes:
    out = bytearray((n + 7) // 8)
    for i in range(n):
        if bits >> i & 1:
            out[i >> 3] |= 1 << (7 - (i & 7))
    return bytes(out)


def ref_padded_blocks(msg: bytes, s: int) -> list[int]:
    """Message bits MSB first, a 1, zero fill to 64 bits short of a multiple
    of s, then the bit length as 64 bits MSB first; cut into s-bit blocks."""
    stream = [(byte >> k) & 1 for byte in msg for k in range(7, -1, -1)]
    stream.append(1)
    stream += [0] * ((-(len(stream) + 64)) % s)
    stream += [(8 * len(msg) >> k) & 1 for k in range(63, -1, -1)]
    assert len(stream) % s == 0
    return [
        sum(bit << j for j, bit in enumerate(stream[i : i + s])) for i in range(0, len(stream), s)
    ]


def test_vector_codec_matches_reference():
    rng = random.Random(41)
    for n in range(301):
        nbytes = (n + 7) // 8
        bits = rng.getrandbits(n) if n else 0
        v = BitVector(n, bits)
        data = ref_to_bytes(bits, n)
        assert v.to_bytes() == data
        assert v.to_hex() == data.hex()
        assert BitVector.from_bytes(data, n) == v
        assert BitVector.from_hex(data.hex(), n) == v
        # arbitrary bytes, pad bits included: read as the reference reads them
        junk = rng.randbytes(nbytes)
        assert BitVector.from_bytes(junk, n).to_int() == ref_from_bytes(junk, n)
        if n % 8:
            # nonzero pad bits are ignored on read and written back as zero
            padded = data[:-1] + bytes([data[-1] | (0xFF >> (n % 8))])
            assert padded != data
            assert BitVector.from_bytes(padded, n) == v
            assert BitVector.from_hex(padded.hex(), n).to_bytes() == data


def test_vector_codec_rejects_wrong_length():
    for n, nbytes in ((0, 1), (1, 0), (8, 2), (9, 1), (300, 37)):
        with pytest.raises(DimensionError):
            BitVector.from_bytes(bytes(nbytes), n)


def _cfg(m: int, w: int) -> HashConfig:
    n = 1 << m
    rng = random.Random(100 * m + w)
    return HashConfig(BitMatrix(8, n, [rng.getrandbits(n) for _ in range(8)]), w)


# (m, w): s = 32 at m=10,w=4; s not a multiple of 8 (18, 10, 12, 5, 7);
# w = 1; one-bit chunks (s = w = 16); and blocks wider than the 64-bit
# length field (s = 96, 256), where the message's last bits, the 1 and the
# length can share one block and a short message fits in one 8-block group
SHAPES = [(10, 4), (10, 2), (10, 1), (5, 4), (5, 1), (5, 16), (7, 1), (10, 16), (10, 64)]
LENGTHS = list(range(301)) + [1000, 4093, 8192]


@pytest.mark.parametrize("m,w", SHAPES, ids=[f"m{m}w{w}" for m, w in SHAPES])
def test_padded_blocks_match_reference(m, w):
    cfg = _cfg(m, w)
    rng = random.Random(m * w)
    for length in LENGTHS:
        msg = rng.randbytes(length)
        assert _padded_blocks(msg, cfg) == ref_padded_blocks(msg, cfg.s)


def ref_columns(h: BitMatrix) -> list[int]:
    """Column j of H packed as an int (bit i = row i), read one bit at a time."""
    return [sum(h[i, j] << i for i in range(h.rows)) for j in range(h.cols)]


def ref_compress(state: int, columns: list[int], w: int, s: int) -> int:
    """Chunk i is coordinates i*c .. i*c+c-1 of the s-bit state, first
    coordinate most significant; it selects column i*l + chunk, and the
    output is the XOR of the w selected columns."""
    l = len(columns) // w
    c = l.bit_length() - 1
    coords = format(state, f"0{s}b")[::-1]  # coordinate 0 first
    acc = 0
    for i in range(w):
        acc ^= columns[i * l + int(coords[i * c : i * c + c], 2)]
    return acc


def test_md_pipeline_over_reference_blocks():
    """Every shape and length, and fewer, as many and more digest bits than
    state bits, against a chain built from the reference blocks: the chain
    starts at zero, each chaining value is cut to its first s coordinates
    or zero-extended to s, and the next block is XORed into it."""
    rng = random.Random(5)
    for m, w in SHAPES:
        n = 1 << m
        s = w * (m - w.bit_length() + 1)
        msgs = [rng.randbytes(length) for length in LENGTHS]
        blocks = [ref_padded_blocks(msg, s) for msg in msgs]
        for r in (s // 2, s, s + 5):
            h = BitMatrix(r, n, [rng.getrandbits(n) for _ in range(r)])
            cfg = HashConfig(h, w)
            assert cfg.s == s
            columns = ref_columns(h)
            for msg, msg_blocks in zip(msgs, blocks):
                chain = 0
                for block in msg_blocks:
                    state = (chain & ((1 << s) - 1)) ^ block
                    chain = ref_compress(state, columns, w, s)
                final = md_final_state(msg, cfg)
                assert final == BitVector(s, state)
                assert compress(final, cfg) == BitVector(r, chain)
            assert md_hash(msg, cfg) == BitVector(r, chain)  # the longest message


def test_compress_rejects_a_state_of_the_wrong_length():
    for m, w in SHAPES:
        cfg = _cfg(m, w)
        for n in (0, cfg.s - 1, cfg.s + 1, cfg.n):
            with pytest.raises(DimensionError):
                compress(BitVector.zeros(n), cfg)
