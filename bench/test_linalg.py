"""The bit transpose where key set-up and signing use it, and mat_vec.

HashConfig reads the public matrix column by column, GoppaCode.permuted_h
builds H * P on the permuted support, the GoppaCode constructor turns each
block of n field values into m rows, and every signature permutes its error
once with Permutation.apply.

mat_vec is timed on the four shapes signing and verifying send it, with the
matrix's table already built, and the first product, which builds the table,
is timed on its own.
"""

import random

import pytest

from cfslab.codehash import HashConfig
from cfslab.goppa import goppa_keygen
from cfslab.linalg import (
    BitMatrix,
    BitVector,
    Permutation,
    inverse,
    mat_vec,
    rand_invertible,
    transpose_bits,
)


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


def test_permuted_h_m10_t4(benchmark):
    code = goppa_keygen(10, 4, random.Random(32))  # H * P is 40 x 1024
    p = Permutation.random(1024, random.Random(33))
    benchmark.group = "GoppaCode.permuted_h m=10, t=4"
    assert benchmark(code.permuted_h, p).rows == 40


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


def _sparse(n, weight, seed):
    return BitVector.from_indices(n, random.Random(seed).sample(range(n), weight))


def _steady(benchmark, mat, v, group):
    mat_vec(mat, v)  # builds the table
    benchmark.group = group
    assert benchmark(mat_vec, mat, v).n == mat.rows


def test_mat_vec_scrambler_inverse_40x40(benchmark):
    s_inv = inverse(rand_invertible(40, random.Random(36)))  # S^-1 at m=10, t=4
    d = BitVector(40, random.Random(37).getrandbits(40))
    _steady(benchmark, s_inv, d, "mat_vec S^-1 40 x 40, dense")


def test_mat_vec_public_40x1024_weight4(benchmark):
    _steady(benchmark, _matrix(40, 1024, 38), _sparse(1024, 4, 39), "mat_vec H_pub 40 x 1024, weight 4")


def test_mat_vec_secret_60x1024_weight6(benchmark):
    _steady(benchmark, _matrix(60, 1024, 40), _sparse(1024, 6, 41), "mat_vec H 60 x 1024, weight 6")


def test_mat_vec_public_15x32_weight3(benchmark):
    _steady(benchmark, _matrix(15, 32, 42), _sparse(32, 3, 43), "mat_vec H_pub 15 x 32, weight 3")


@pytest.mark.parametrize("rows,cols", [(40, 1024), (144, 1 << 16)])
def test_mat_vec_first_call(benchmark, rows, cols):
    row_ints = _matrix(rows, cols, 44)._rows
    v = _sparse(cols, 4, 45)

    def fresh():  # an untimed copy with no table yet
        return (BitMatrix(rows, cols, row_ints), v), {}

    benchmark.group = f"mat_vec first call (table build) {rows} x {cols}"
    result = benchmark.pedantic(mat_vec, setup=fresh, rounds=5 if cols > 1024 else 50)
    assert result.n == rows
