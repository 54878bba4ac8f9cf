"""The bit transpose where key set-up and signing use it.

HashConfig reads the public matrix column by column, permute_columns builds
H * P, the GoppaCode constructor turns each block of n field values into m
rows, and every signature permutes its error once with Permutation.apply.
"""

import random

from cfslab.codehash import HashConfig
from cfslab.linalg import BitMatrix, BitVector, Permutation, transpose_bits


def _matrix(rows, cols, seed):
    rng = random.Random(seed)
    return BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def test_transpose_60x1024(benchmark):
    rng = random.Random(30)
    rows = [rng.getrandbits(1024) for _ in range(60)]  # the rows of H at m=10, t=6
    benchmark.group = "transpose_bits 60 x 1024 bits"
    assert len(benchmark(transpose_bits, rows, 1024)) == 1024


def test_transpose_65536x16(benchmark):
    rng = random.Random(31)
    values = [rng.getrandbits(16) for _ in range(1 << 16)]  # one j-block at m=16
    benchmark.group = "transpose_bits 65536 x 16 bits"
    assert len(benchmark(transpose_bits, values, 16)) == 16


def test_permute_columns_40x1024(benchmark):
    h = _matrix(40, 1024, 32)  # H at m=10, t=4
    p = Permutation.random(1024, random.Random(33))
    benchmark.group = "permute_columns 40 x 1024"
    assert benchmark(p.permute_columns, h).rows == 40


def test_apply_weight4_n1024(benchmark):
    rng = random.Random(34)
    p = Permutation.random(1024, rng)
    e = BitVector.from_indices(1024, rng.sample(range(1024), 4))
    benchmark.group = "Permutation.apply n=1024, weight 4"
    assert benchmark(p.apply, e).weight == 4


def test_hash_config_m10_w4(benchmark):
    h = _matrix(60, 1024, 35)
    benchmark.group = "HashConfig m=10, w=4"
    assert benchmark(HashConfig, h, 4).w == 4
