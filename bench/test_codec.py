"""The code-based hash where signing uses it, and the bit-order codec where
key loading uses it.

md_hash and md_final_state of a long message are bound by the chain: one
traced `compress` per s-bit block, with the chaining state kept as an int
that goes in and comes out through the BitVector slots.  _padded_blocks,
the chain's first step, builds the padded stream as one int and reads it
back one s-byte group (eight blocks) at a time.  forge_mcfsc on the same
message is one md_hash plus a short second chain.  digest_bits is one
SHA-256 plus a bytes -> BitVector conversion.  load_public_key of a 40x1024
key is the header checks, one hex row -> BitVector conversion per matrix
row and the public key's hash configuration.

    python -m pytest bench/test_codec.py --benchmark-only
"""

import random

import pytest

from cfslab.attacks import forge_mcfsc
from cfslab.codehash import (
    HashConfig,
    _padded_blocks,
    compress,
    digest_bits,
    md_final_state,
    md_hash,
)
from cfslab.keyfiles import load_public_key, save_public_key
from cfslab.linalg import BitVector
from cfslab.schemes import cfs_keygen, mcfsc_keygen


@pytest.fixture(scope="module")
def cfs_pk():
    return cfs_keygen(10, 4, random.Random(17))[1]


@pytest.fixture(scope="module")
def h_pub(cfs_pk):
    return cfs_pk.h_pub  # 40 x 1024


@pytest.fixture(scope="module")
def msg_8k():
    return random.Random(18).randbytes(8192)


def test_md_hash_8k(benchmark, h_pub, msg_8k):
    cfg = HashConfig(h_pub, 4)
    benchmark.group = "md_hash m=10,w=4, 8 KiB"
    digest = benchmark(md_hash, msg_8k, cfg)
    assert digest.n == h_pub.rows


def test_md_final_state_8k(benchmark, h_pub, msg_8k):
    cfg = HashConfig(h_pub, 4)
    benchmark.group = "md_final_state m=10,w=4, 8 KiB"
    assert benchmark(md_final_state, msg_8k, cfg).n == cfg.s


def test_padded_blocks_8k(benchmark, h_pub, msg_8k):
    cfg = HashConfig(h_pub, 4)
    benchmark.group = "_padded_blocks m=10,w=4, 8 KiB"
    assert len(benchmark(_padded_blocks, msg_8k, cfg)) == -(-(8 * 8192 + 65) // cfg.s)


def test_compress(benchmark, h_pub):
    cfg = HashConfig(h_pub, 4)
    state = BitVector(cfg.s, random.Random(19).getrandbits(cfg.s))
    benchmark.group = "compress m=10,w=4"
    assert benchmark(compress, state, cfg).n == h_pub.rows


def test_forge_mcfsc_8k(benchmark, msg_8k):
    _, pk = mcfsc_keygen(10, 6, 4, random.Random(20))
    rng = random.Random(21)
    benchmark.group = "forge_mcfsc m=10,t=6,w=4, 8 KiB"
    forgery = benchmark(forge_mcfsc, msg_8k, pk, rng)
    assert forgery.signature.error.weight == 4


def test_digest_bits_r40(benchmark):
    benchmark.group = "digest_bits r=40"
    assert benchmark(digest_bits, b"m" * 40, 40).n == 40


def test_load_public_key_40x1024(benchmark, cfs_pk, tmp_path):
    path = tmp_path / "cfs.pk"
    save_public_key(cfs_pk, "cfs", path)
    benchmark.group = "load_public_key cfs m=10,t=4"
    assert benchmark(load_public_key, path) == ("cfs", cfs_pk)
