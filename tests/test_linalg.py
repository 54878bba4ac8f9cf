import random
import sys

import pytest

from cfslab import linalg
from cfslab.codehash import HashConfig
from cfslab.errors import DimensionError
from cfslab.goppa import goppa_keygen
from cfslab.keyfiles import load_public_key, load_secret_key, save_public_key, save_secret_key
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
from cfslab.metering import count_operations
from cfslab.schemes import cfs_keygen, cfs_sign, mcfsc_keygen
from oracles import (
    as_matrix,
    from_bits,
    inverse_by_rref,
    kernel_basis,
    mat_mul_by_set_bits,
    mat_vec_rows,
    permute_columns,
    rand_invertible_by_inverse,
    rand_invertible_by_rank,
    rank_by_basis,
    rank_by_rref,
    transpose,
    transpose_by_digits,
)


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
    assert hp == permute_columns(h, p)
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


# --- inverse() keeps its result on the matrix ----------------------------------


def counting_eliminations(monkeypatch):
    """The `_basis` calls that `inverse` makes; the rank tests of `rank` and
    `rand_invertible` go through the same kernel and are not counted."""
    calls = []
    basis = linalg._basis

    def counted(rows):
        if sys._getframe(1).f_code is linalg.inverse.__code__:
            calls.append(rows)
        return basis(rows)

    monkeypatch.setattr(linalg, "_basis", counted)
    return calls


def test_inverse_of_singular_is_none(monkeypatch):
    # "singular" is kept too: the second call eliminates nothing
    calls = counting_eliminations(monkeypatch)
    singular = BitMatrix(2, 2, [0b11, 0b11])
    assert inverse(singular) is None and inverse(singular) is None
    assert len(calls) == 1


@pytest.mark.parametrize("r", [1, 7, 40, 144])
def test_inverse_is_eliminated_once_and_kept(monkeypatch, r):
    s = BitMatrix(r, r, rand_invertible(r, random.Random(r))._rows)  # nothing cached
    calls = counting_eliminations(monkeypatch)
    inv = inverse(s)
    assert inverse(s) is inv and len(calls) == 1
    assert mat_mul(s, inv) == BitMatrix.identity(r)
    assert s == BitMatrix(r, r, s._rows) and hash(s) == hash(BitMatrix(r, r, s._rows))


def test_rand_invertible_leaves_the_inverse_to_the_secret_key(monkeypatch):
    # a draw is tested by its rank; the secret key's check inverts the one S
    # it keeps, once, and signing reads S^-1 from S
    calls = counting_eliminations(monkeypatch)
    s = rand_invertible(40, random.Random(41))
    assert calls == [] and s._inverse is None
    sk, _ = cfs_keygen(5, 3, random.Random(5))
    assert len(calls) == 1 and inverse(sk.scrambler) is sk.scrambler._inverse
    for i in range(3):
        cfs_sign(b"once %d" % i, sk)
    assert len(calls) == 1


def planted_singular(rows, rng):
    """Four singular matrices from r >= 3 rows: a zero row, a repeated row,
    a row that is the XOR of two others, and a zero column."""
    r = len(rows)
    i, j, k = rng.sample(range(r), 3)
    zero_row, repeated, summed = list(rows), list(rows), list(rows)
    zero_row[i] = 0
    repeated[i] = rows[j]
    summed[i] = rows[j] ^ rows[k]
    zero_column = [row & ~(1 << i) for row in rows]
    return [zero_row, repeated, summed, zero_column]


@pytest.mark.parametrize("r", [0, 1, 2, 3, 8, 15, 40, 72, 144])
def test_inverse_matches_row_reduction(r):
    # bit for bit the inverse that [S | I] reduced over S's columns gives,
    # and None exactly where that finds fewer than r pivots; the planted
    # cases are singular whatever the draw
    for seed in range(12 if r < 72 else 4):
        rng = random.Random(seed)
        drawn = [rng.getrandbits(r) for _ in range(r)]
        invertible = rand_invertible(r, rng)._rows if r else []
        for rows in (drawn, invertible):
            got = inverse(BitMatrix(r, r, rows))
            assert got == inverse_by_rref(BitMatrix(r, r, rows))
            if got is not None:
                assert mat_mul(BitMatrix(r, r, rows), got) == BitMatrix.identity(r)
        for rows in planted_singular(invertible, rng) if r >= 3 else ():
            assert inverse(BitMatrix(r, r, rows)) is None is inverse_by_rref(BitMatrix(r, r, rows))


@pytest.mark.parametrize("r", [1, 2, 8, 15, 40, 72, 144])
def test_rand_invertible_draws_as_the_draw_and_invert_loop(r):
    # the same S from the same draws, and the RNG left in the same state
    for seed in range(8 if r < 72 else 3):
        rng, ref = random.Random(seed), random.Random(seed)
        assert rand_invertible(r, rng) == rand_invertible_by_inverse(r, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("r", [1, 2, 3, 8, 15, 40, 64])
def test_rand_invertible_matches_the_rank_oracle(r):
    # accepting a draw iff it has an inverse accepts the draws of full rank:
    # same matrices, and the RNG left in the same state
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert rand_invertible(r, rng) == rand_invertible_by_rank(r, ref)
        assert rng.getrandbits(64) == ref.getrandbits(64)


@pytest.mark.parametrize("r,c", [(1, 1), (6, 13), (15, 15), (13, 6), (40, 40)])
def test_rank_matches_the_basis_oracle(r, c):
    rng = random.Random(r * 100 + c)
    for _ in range(50):
        # sparse rows, so that rank-deficient matrices come up too
        rows = [rng.getrandbits(c) & rng.getrandbits(c) for _ in range(r)]
        assert rank(BitMatrix(r, c, rows)) == rank_by_basis(rows)


def planted_rank_cases(rng):
    """(rows, cols, row ints) with a third of the rows replaced by the XOR
    of up to three rows (none gives a zero row, one a repeat), shuffled."""
    for r, c in [(1, 1), (5, 5), (8, 30), (12, 7), (40, 1024), (60, 200)]:
        for _ in range(5):
            rows = [rng.getrandbits(c) for _ in range(r)]
            for i in rng.sample(range(r), r // 3):
                picked = rng.sample(rows, rng.randint(0, min(3, r)))
                rows[i] = 0
                for row in picked:
                    rows[i] ^= row
            rng.shuffle(rows)
            yield r, c, rows


def test_rank_matches_elimination_with_planted_dependencies():
    for r, c, rows in planted_rank_cases(random.Random(17)):
        mat = BitMatrix(r, c, rows)
        assert rank(mat) == rank_by_rref(mat) == rank_by_basis(rows)


@pytest.mark.parametrize("full", [True, False], ids=["full-rank", "deficient"])
@pytest.mark.parametrize("r,c", [(3, 100), (6, 1024), (40, 1024)])
def test_rank_widens_a_window_that_comes_up_short(monkeypatch, r, c, full):
    # the last row has nothing in the first 4r columns, so two windows come
    # up short; the full-rank case then finds it further right, and the
    # deficient one is read over the full width
    rng = random.Random(r * c)
    rows = [rng.getrandbits(c) for _ in range(r - 1)]
    rows.append(rng.getrandbits(c) >> 4 * r << 4 * r if full else rows[0] ^ rows[-1])
    mat = BitMatrix(r, c, rows)
    calls = []
    basis = linalg._basis
    monkeypatch.setattr(linalg, "_basis", lambda rows: calls.append(rows) or basis(rows))
    assert rank(mat) == rank_by_rref(mat) == (r if full else r - 1)
    assert len(calls) >= 3


@pytest.mark.parametrize("r,c", [(0, 0), (0, 9), (9, 0), (1, 0), (0, 1024)])
def test_rank_of_an_empty_matrix_is_zero(r, c):
    assert rank(BitMatrix(r, c)) == 0 == rank_by_rref(BitMatrix(r, c))


@pytest.mark.parametrize("m,t", [(5, 3), (10, 4), (12, 8)])
def test_rank_of_goppa_parity_checks_matches_elimination(m, t):
    h = goppa_keygen(m, t, random.Random(m * t)).h
    assert rank(h) == rank_by_rref(h) == m * t


@pytest.mark.parametrize("a_rows,inner,b_cols", [
    (0, 8, 20),  # a with no rows
    (0, 0, 0),
    (4, 0, 9),  # nothing to sum: zero rows
    (7, 13, 21),  # b.rows not a multiple of 8, nor of a table's 6 rows
    (40, 40, 1024),  # S * (H * P) at m = 10, t = 4
    (60, 60, 1024),
    (5, 300, 17),  # a tall b
    (3, 1031, 2),
])
def test_mat_mul_matches_one_xor_per_set_bit(a_rows, inner, b_cols):
    rng = random.Random(a_rows * 7919 + inner * 31 + b_cols)
    for _ in range(5):
        a, b = random_matrix(a_rows, inner, rng), random_matrix(inner, b_cols, rng)
        assert mat_mul(a, b) == mat_mul_by_set_bits(a, b)
    dense = BitMatrix(a_rows, inner, [(1 << inner) - 1] * a_rows)
    assert mat_mul(dense, b) == mat_mul_by_set_bits(dense, b)


@pytest.mark.parametrize("width", [17, 32, 60, 1024])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 63, 64, 65, 72, 144])
def test_transpose_bits_matches_the_digit_transpose(width, count):
    # up to 64 values fill one 8-byte lane word per row; 65 and more take
    # one int per row
    rng = random.Random(width * 101 + count)
    values = [rng.getrandbits(width) for _ in range(count)]
    if count:
        values[-1] = (1 << width) - 1
    assert transpose_bits(values, width) == transpose_by_digits(values, width)


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


@pytest.mark.parametrize("width", [0, 1, 2, 7, 8, 9, 15, 16, 17, 60, 144])
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
    assert m.columns() == tuple(rows)
    assert transpose(m) == BitMatrix(width, count, rows)


def test_transpose_bits_matches_per_bit_on_a_whole_m16_support():
    # one j-block at m = 16: 2^16 two-byte values, the widest packed format
    values = list(range(1 << 16))
    random.Random(16).shuffle(values)
    assert transpose_bits(values, 16) == transpose_per_bit(values, 16)


@pytest.mark.parametrize("rows,cols", [(0, 9), (1, 1), (3, 17), (10, 8), (40, 100), (7, 0)])
def test_permute_columns_matches_matrix_product(rows, cols):
    rng = random.Random(rows * 1009 + cols)
    for _ in range(5):
        h = random_matrix(rows, cols, rng)
        p = Permutation.random(cols, rng)
        assert permute_columns(h, p) == mat_mul(h, as_matrix(p))


@pytest.mark.parametrize("n", [0, 1, 9, 1024])
def test_apply_matches_per_bit(n):
    rng = random.Random(n)
    for _ in range(5):
        p = Permutation.random(n, rng)
        sparse = BitVector.from_indices(n, rng.sample(range(n), min(n, 4)))
        for v in (BitVector.zeros(n), sparse, random_vector(n, rng), BitVector(n, (1 << n) - 1)):
            assert p.apply(v) == apply_per_bit(p, v)


# --- mat_vec's cached tables, against the row-parity loop ---------------------

ROWS = [0, 1, 15, 40, 144]
# 256 is the widest matrix read through byte-chunk tables
COLS = [0, 1, 7, 8, 9, 255, 256, 257, 1024]


def vectors(n, rng):
    """Zero, weight-4 (a weight-t error), dense and all-ones vectors of length n."""
    return [
        BitVector.zeros(n),
        BitVector.from_indices(n, rng.sample(range(n), min(n, 4))),
        random_vector(n, rng),
        BitVector(n, (1 << n) - 1),
    ]


def assert_products_match(mat, rng):
    """Every single-bit product is a column, and the other vectors agree
    with the row-parity loop."""
    cols = mat.columns()
    for j in range(mat.cols):
        assert mat_vec(mat, BitVector(mat.cols, 1 << j)).to_int() == cols[j]
    for v in vectors(mat.cols, rng):
        assert mat_vec(mat, v) == mat_vec_rows(mat, v)


@pytest.mark.parametrize("cols", COLS)
@pytest.mark.parametrize("rows", ROWS)
def test_mat_vec_matches_row_parity(rows, cols):
    rng = random.Random(rows * 4099 + cols)
    mat = random_matrix(rows, cols, rng)
    assert_products_match(mat, rng)
    assert_products_match(mat, rng)  # through the cached table


@pytest.mark.parametrize("n", [1, 8, 9, 40, 144, 257])
def test_mat_vec_matches_row_parity_on_built_matrices(n):
    rng = random.Random(n)
    s = rand_invertible(n, rng)
    a, b = random_matrix(n, 2 * n, rng), random_matrix(2 * n, n + 3, rng)
    p = Permutation.random(2 * n, rng)
    for mat in (BitMatrix.identity(n), s, inverse(s), mat_mul(a, b), permute_columns(a, p)):
        assert_products_match(mat, rng)


@pytest.mark.parametrize("m,t", [(5, 3), (9, 2)])
def test_mat_vec_matches_row_parity_on_loaded_keys(tmp_path, m, t):
    rng = random.Random(m)
    sk, pk = cfs_keygen(m, t, rng)
    save_public_key(pk, "cfs", tmp_path / "pk")
    _, loaded = load_public_key(tmp_path / "pk")
    for mat in (loaded.h_pub, sk.code.h, inverse(sk.scrambler)):
        assert_products_match(mat, rng)


@pytest.mark.parametrize("rows,cols", [(15, 32), (40, 40), (40, 1024), (144, 257)])
def test_each_matrix_keeps_its_own_table(rows, cols):
    rng = random.Random(rows + cols)
    a, b = random_matrix(rows, cols, rng), random_matrix(rows, cols, rng)
    for v in vectors(cols, rng):
        # products of two matrices of one shape, interleaved
        for mat in (a, b, a, b):
            assert mat_vec(mat, v) == mat_vec_rows(mat, v)


# --- the one set-bit reader, against a per-bit loop ----------------------------


def xor_per_bit(table, bits):
    acc = 0
    for i in range(bits.bit_length()):
        if bits >> i & 1:
            acc ^= table[i]
    return acc


@pytest.mark.parametrize("length", [0, 1, 8, 9, 64, 65, 300])
@pytest.mark.parametrize("width", [1, 8, 63, 64, 65, 1024, 65536])
def test_xor_selected_matches_a_per_bit_loop(width, length):
    rng = random.Random(width * 1009 + length)
    table = [rng.getrandbits(width) for _ in range(length)]
    values = [0, (1 << length) - 1, *(1 << i for i in range(length))]
    values += [rng.getrandbits(length) for _ in range(20)]
    # the table longer than bits: set bits in the low half only
    values += [rng.getrandbits(length // 2) for _ in range(5)]
    start = rng.getrandbits(width)
    for table in (table, tuple(table)):
        for bits in values:
            assert linalg._xor_selected(table, bits) == xor_per_bit(table, bits)
            assert linalg._xor_selected(table, bits, start) == start ^ xor_per_bit(table, bits)


# --- mat_vec's invariants ----------------------------------------------------


@pytest.mark.parametrize("cols", [40, 1024])
def test_mat_vec_ticks_once_per_call(cols):
    rng = random.Random(cols)
    mat = random_matrix(40, cols, rng)
    for k in range(1, 4):  # the first call builds the table; no extra tick
        with count_operations() as ops:
            mat_vec(mat, random_vector(cols, rng))
        assert ops.as_dict() == {"compressions": 0, "matvecs": 1, "decode_calls": 0}


@pytest.mark.parametrize("cols", [40, 1024])
def test_mat_vec_width_mismatch_raises_before_and_after_the_table(cols):
    mat = random_matrix(40, cols, random.Random(cols))
    for _ in range(2):
        with count_operations() as ops:
            with pytest.raises(DimensionError):
                mat_vec(mat, BitVector.zeros(cols + 1))
        assert ops.matvecs == 0
        mat_vec(mat, BitVector.zeros(cols))


@pytest.mark.parametrize("cols", [40, 1024])
def test_equal_matrices_stay_equal_after_a_product(cols):
    rng = random.Random(cols)
    a = random_matrix(40, cols, rng)
    b = BitMatrix(a.rows, a.cols, [a.row(i).to_int() for i in range(a.rows)])
    mat_vec(a, random_vector(cols, rng))
    assert a == b and b == a and hash(a) == hash(b)
    assert len({a, b}) == 1
    mat_vec(b, random_vector(cols, rng))
    assert a == b and hash(a) == hash(b)


def test_bit_matrix_stays_immutable():
    mat = random_matrix(4, 9, random.Random(1))
    mat_vec(mat, BitVector.zeros(9))
    for attr in ("rows", "cols", "_rows", "_table", "anything"):
        with pytest.raises(AttributeError):
            setattr(mat, attr, None)


def test_key_set_up_builds_no_table(tmp_path):
    # tables are built by the first product, never by keygen or a key load
    sk, pk = cfs_keygen(5, 3, random.Random(2))
    save_secret_key(sk, "cfs", tmp_path / "sk")
    save_public_key(pk, "cfs", tmp_path / "pk")
    (_, sk2), (_, pk2) = load_secret_key(tmp_path / "sk"), load_public_key(tmp_path / "pk")
    for key, public in ((sk, pk), (sk2, pk2)):
        for mat in (key.code.h, key.scrambler, inverse(key.scrambler), public.h_pub):
            assert mat._table is None


# --- Permutation on hostile mappings ------------------------------------------

HOSTILE_MAPPINGS = {
    "duplicate": (0, 0),
    "duplicate-of-three": (2, 0, 2),
    "past-the-end": (1, 2),
    "far-past-the-end": (0, 1, 99),
    # a naive inverse[src] = j fills every slot for these: -1 writes slot n-1
    "negative-for-the-last": (-1, 0),
    "negative-and-missing": (1, 2, -3),
    "float": (0.0, 1),
    "half": (0, 1.5),
    "string": ("0", 1),
    "none": (None, 0),
}


@pytest.mark.parametrize("mapping", HOSTILE_MAPPINGS.values(), ids=HOSTILE_MAPPINGS)
def test_permutation_rejects_hostile_mappings(mapping):
    with pytest.raises(ValueError):
        Permutation(mapping)


def test_permutation_on_no_coordinates():
    p = Permutation(())
    assert p.n == 0 and p.mapping == () and p.inverse() == p
    assert p.apply(BitVector.zeros(0)) == BitVector.zeros(0)
    assert permute_columns(BitMatrix(3, 0), p) == BitMatrix(3, 0)
    assert Permutation.from_text("") == p


@pytest.mark.parametrize("n", [1, 2, 17, 1024])
def test_permutation_inverse_inverts_the_mapping(n):
    p = Permutation.random(n, random.Random(n))
    assert [p.mapping[src] for src in p.inverse().mapping] == list(range(n))
    assert p.inverse().mapping == tuple(sorted(range(n), key=p.mapping.__getitem__))
    assert p.inverse().inverse() == p


# --- one column list per matrix -----------------------------------------------


def test_columns_are_built_once_and_cannot_be_mutated():
    mat = random_matrix(40, 1024, random.Random(5))
    cols = mat.columns()
    assert mat.columns() is cols
    with pytest.raises(TypeError):
        cols[0] = 1
    with pytest.raises(AttributeError):
        mat._columns = ()
    assert mat.columns() == tuple(transpose_bits(mat._rows, 1024))


@pytest.mark.parametrize("cols", [40, 1024])
def test_equality_and_hashing_ignore_the_columns(cols):
    rng = random.Random(cols)
    a = random_matrix(40, cols, rng)
    a.columns()
    b = BitMatrix(a.rows, a.cols, list(a._rows))
    assert a._columns is not None and b._columns is None
    assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1
    b.columns()
    assert a == b and hash(a) == hash(b)


def test_public_keys_reuse_the_permuted_columns(monkeypatch):
    # the key's HashConfig transposes H_pub once, at keygen, and another
    # HashConfig and mat_vec read the same columns
    sk, pk = mcfsc_keygen(10, 6, 4, random.Random(6))
    calls = []
    monkeypatch.setattr(linalg, "transpose_bits", lambda *a: calls.append(a) or [])
    HashConfig(pk.h_pub, 4)
    e = BitVector.from_indices(1024, [1, 700])
    assert mat_vec(pk.h_pub, e).to_int() == pk.h_pub.columns()[1] ^ pk.h_pub.columns()[700]
    assert calls == []


@pytest.mark.parametrize("m,t", [(5, 3), (10, 4)])
def test_key_set_up_transposes_no_column_list(tmp_path, monkeypatch, m, t):
    # keygen and load_secret_key build H_pub = S * (H * P) from rows; a cfs
    # H_pub is transposed by the first product that reads its columns
    calls = []
    transpose = linalg.transpose_bits
    monkeypatch.setattr(linalg, "transpose_bits", lambda *a: calls.append(a[1]) or transpose(*a))
    sk, pk = cfs_keygen(m, t, random.Random(m))
    save_secret_key(sk, "cfs", tmp_path / "sk")
    _, loaded = load_secret_key(tmp_path / "sk")
    assert calls == []
    for key in (pk, loaded.pk):
        assert key.h_pub._columns is None
        assert mat_vec(key.h_pub, BitVector.from_indices(1 << m, [3])).to_int() == key.h_pub.columns()[3]
    assert calls == [1 << m, 1 << m]
