"""The bit-order codec where signing and key loading use it.

md_hash of a long message is dominated by padding and compression,
digest_bits by one SHA-256 plus a bytes -> BitVector conversion, and
BitMatrix.from_text by one hex row -> BitVector conversion per row.
"""

import random

import pytest

from cfslab.codehash import HashConfig, digest_bits, md_hash
from cfslab.linalg import BitMatrix
from cfslab.schemes import cfs_keygen


@pytest.fixture(scope="module")
def h_pub():
    _, pk = cfs_keygen(10, 4, random.Random(17))
    return pk.h_pub  # 40 x 1024


def test_md_hash_8k(benchmark, h_pub):
    cfg = HashConfig(h_pub, 4)
    msg = random.Random(18).randbytes(8192)
    benchmark.group = "md_hash m=10,w=4, 8 KiB"
    digest = benchmark(md_hash, msg, cfg)
    assert digest.n == h_pub.rows


def test_digest_bits_r40(benchmark):
    benchmark.group = "digest_bits r=40"
    assert benchmark(digest_bits, b"m" * 40, 40).n == 40


def test_matrix_from_text(benchmark, h_pub):
    text = h_pub.to_text()
    benchmark.group = "BitMatrix.from_text 40x1024"
    assert benchmark(BitMatrix.from_text, text) == h_pub
