import random

import pytest

from cfslab.errors import DimensionError
from cfslab.linalg import (
    BitMatrix,
    BitVector,
    Permutation,
    inverse,
    mat_mul,
    mat_vec,
    rand_invertible,
    rank,
    transpose_bits,
)
from oracles import as_matrix, from_bits, kernel_basis, transpose


def random_matrix(r, c, rng):
    return BitMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])


def random_vector(n, rng):
    return BitVector(n, rng.getrandbits(n))


def test_mat_vec_identity():
    rng = random.Random(1)
    v = random_vector(12, rng)
    assert mat_vec(BitMatrix.identity(12), v) == v


def test_mat_vec_zero():
    rng = random.Random(2)
    h = random_matrix(5, 9, rng)
    assert mat_vec(h, BitVector.zeros(9)) == BitVector.zeros(5)


def test_mat_vec_linearity():
    rng = random.Random(3)
    for _ in range(100):
        h = random_matrix(6, 14, rng)
        a, b = random_vector(14, rng), random_vector(14, rng)
        assert mat_vec(h, a ^ b) == mat_vec(h, a) ^ mat_vec(h, b)


def test_mat_vec_dimension_error():
    with pytest.raises(DimensionError):
        mat_vec(BitMatrix.identity(4), BitVector.zeros(5))


def test_mat_mul_identity():
    rng = random.Random(4)
    a = random_matrix(7, 7, rng)
    assert mat_mul(a, BitMatrix.identity(7)) == a
    assert mat_mul(BitMatrix.identity(7), a) == a


def test_mat_mul_associates_with_mat_vec():
    rng = random.Random(5)
    for _ in range(50):
        a = random_matrix(5, 8, rng)
        b = random_matrix(8, 11, rng)
        v = random_vector(11, rng)
        assert mat_vec(mat_mul(a, b), v) == mat_vec(a, mat_vec(b, v))


def test_mat_mul_dimension_error():
    with pytest.raises(DimensionError):
        mat_mul(BitMatrix.identity(3), BitMatrix.identity(4))


def test_permutation_matrix_column_action():
    rng = random.Random(6)
    h = random_matrix(6, 10, rng)
    p = Permutation.random(10, rng)
    hp = mat_mul(h, as_matrix(p))
    assert hp == p.permute_columns(h)
    cols, hp_cols = h.columns(), hp.columns()
    for j in range(10):
        assert hp_cols[j] == cols[p.mapping[j]]


def test_permutation_vector_action_matches_matrix():
    rng = random.Random(7)
    p = Permutation.random(9, rng)
    pm = as_matrix(p)
    for _ in range(30):
        v = random_vector(9, rng)
        assert p.apply(v) == mat_vec(transpose(pm), v)


def test_permutation_preserves_weight():
    rng = random.Random(8)
    for _ in range(100):
        p = Permutation.random(16, rng)
        v = random_vector(16, rng)
        assert p.apply(v).weight == v.weight


def test_permutation_inverse():
    rng = random.Random(9)
    p = Permutation.random(12, rng)
    v = random_vector(12, rng)
    assert p.inverse().apply(p.apply(v)) == v
    assert mat_mul(as_matrix(p), as_matrix(p.inverse())) == BitMatrix.identity(12)


def test_rand_invertible_size_one():
    s = rand_invertible(1, random.Random(10))
    assert s == BitMatrix(1, 1, [1])
    assert inverse(s) == BitMatrix(1, 1, [1])


@pytest.mark.parametrize("r", [2, 5, 12, 33, 64])
def test_rand_invertible_product_is_identity(r):
    rng = random.Random(r)
    for _ in range(100):
        s = rand_invertible(r, rng)
        assert mat_mul(s, inverse(s)) == BitMatrix.identity(r)
        assert rank(s) == r  # Gaussian-elimination oracle for invertibility


def test_kernel_basis_spans_kernel():
    rng = random.Random(13)
    for _ in range(50):
        h = random_matrix(6, 13, rng)
        basis = kernel_basis(h)
        assert len(basis) == 13 - rank(h)
        for v in basis:
            assert mat_vec(h, v) == BitVector.zeros(6)
        # basis vectors are independent
        assert rank(BitMatrix(len(basis), 13, [v.to_int() for v in basis])) == len(basis)


def test_inverse_of_singular_is_none():
    assert inverse(BitMatrix(2, 2, [0b11, 0b11])) is None


def test_vector_bytes_round_trip():
    rng = random.Random(15)
    for n in (1, 7, 8, 9, 12, 16, 61):
        v = random_vector(n, rng)
        assert BitVector.from_bytes(v.to_bytes(), n) == v
        assert BitVector.from_hex(v.to_hex(), n) == v


def test_vector_bit_order_convention():
    # coordinate 0 is the most significant bit of the first byte
    v = from_bits([1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert v.to_bytes() == b"\x80\x80"


def test_vector_basics():
    v = from_bits("10110")
    assert len(v) == 5 and v.weight == 3
    assert v.support() == (0, 2, 3)
    assert v.flip(1).weight == 4
    assert list(v) == [1, 0, 1, 1, 0]
    with pytest.raises(DimensionError):
        v ^ BitVector.zeros(6)


# --- one transpose, against per-bit code -------------------------------------


def transpose_per_bit(values, width):
    """Reference for `transpose_bits`: one bit at a time."""
    rows = []
    for b in range(width):
        acc = 0
        for i, v in enumerate(values):
            acc |= ((v >> b) & 1) << i
        rows.append(acc)
    return rows


def apply_per_bit(p, v):
    """Reference for v * P: (v * P)[j] = v[mapping[j]]."""
    bits = v.to_int()
    acc = 0
    for j, src in enumerate(p.mapping):
        acc |= ((bits >> src) & 1) << j
    return BitVector(p.n, acc)


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 60, 144])
@pytest.mark.parametrize("count", [0, 1, 33, 1024])
def test_transpose_bits_matches_per_bit(width, count):
    rng = random.Random(width * 10007 + count)
    values = [rng.getrandbits(width) for _ in range(count)]
    if count:
        values[0] = (1 << width) - 1  # every bit of the top row set
    rows = transpose_bits(values, width)
    assert rows == transpose_per_bit(values, width)
    assert transpose_bits(rows, count) == values  # transposing twice
    m = BitMatrix(count, width, values)
    assert m.columns() == rows
    assert transpose(m) == BitMatrix(width, count, rows)


@pytest.mark.parametrize("rows,cols", [(0, 9), (1, 1), (3, 17), (10, 8), (40, 100), (7, 0)])
def test_permute_columns_matches_matrix_product(rows, cols):
    rng = random.Random(rows * 1009 + cols)
    for _ in range(5):
        h = random_matrix(rows, cols, rng)
        p = Permutation.random(cols, rng)
        assert p.permute_columns(h) == mat_mul(h, as_matrix(p))


@pytest.mark.parametrize("n", [0, 1, 9, 1024])
def test_apply_matches_per_bit(n):
    rng = random.Random(n)
    for _ in range(5):
        p = Permutation.random(n, rng)
        sparse = BitVector.from_indices(n, rng.sample(range(n), min(n, 4)))
        for v in (BitVector.zeros(n), sparse, random_vector(n, rng), BitVector(n, (1 << n) - 1)):
            assert p.apply(v) == apply_per_bit(p, v)
