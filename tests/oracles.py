"""Plain constructions that the tests state facts with and `cfslab` itself
never needs: vectors from bit strings, the transpose, the row-parity matrix
product, the per-position Goppa parity-check build, the syndrome polynomial
by a polynomial product, column permutation by
picking columns, permutation matrices, kernel bases, rank by an XOR basis
and the random invertible matrix it accepts, a quadratic with no root in
the field, SHA-256 in counter mode one block at a time, and the verifier as
a separate gate plus a comparison of digest vectors.

Also the earlier GF(2) kernels that `linalg`'s faster ones must agree with
bit for bit: the transpose through ASCII digits of every value's bytes,
rank by row reduction over every column, the inverse by row reduction
beside the identity (`_rref`, the elimination `linalg` had before its XOR
basis), the product by one XOR per set bit, and the draw-and-invert loop
for a random invertible matrix."""

import hashlib

from cfslab.errors import DimensionError
from cfslab.gf2m import GF2m, Poly
from cfslab.linalg import (
    BitMatrix,
    BitVector,
    Permutation,
    inverse,
    mat_vec,
    transpose_bits,
)
from cfslab.schemes import counter_width


def from_bits(bits) -> BitVector:
    """From an iterable of 0/1 values (ints or '0'/'1' characters)."""
    acc = 0
    n = 0
    for b in bits:
        b = int(b)
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        acc |= b << n
        n += 1
    return BitVector(n, acc)


def transpose(mat: BitMatrix) -> BitMatrix:
    return BitMatrix(mat.cols, mat.rows, mat.columns())


def mat_vec_rows(mat: BitMatrix, v: BitVector) -> BitVector:
    """Reference for `mat_vec`: coordinate i is the parity of row i & v."""
    if mat.cols != v.n:
        raise DimensionError(f"{mat.cols}-column matrix times length-{v.n} vector")
    bits = v.to_int()
    acc = 0
    for i in range(mat.rows):
        acc |= ((mat.row(i).to_int() & bits).bit_count() & 1) << i
    return BitVector(mat.rows, acc)


def parity_check_rows(g: Poly, support) -> list[int]:
    """Reference for `GoppaCode(g, support).h`: x_i^j / g(x_i) one support
    position at a time on the exp/log tables, each j-block of n values
    transposed into its m rows."""
    field, m, t = g.field, g.field.m, g.degree
    exp, log, q1 = field._exp, field._log, field.order - 1
    # log x, with log 0 = 0 as a placeholder: the zero element is patched below
    lx = [log[x] for x in support]
    gx = [0] * len(support)
    for c in reversed(g.coeffs):  # Horner's rule at every position
        gx = [(exp[log[a] + l] if a else 0) ^ c for a, l in zip(gx, lx)]
    zero = support.index(0) if 0 in support else None
    if zero is not None:
        gx[zero] = g[0]
    lginv = [q1 - log[v] for v in gx]  # log of 1/g(x_i); g has no root
    rows = []
    for j in range(t):
        values = [exp[(lg + j * l) % q1] for lg, l in zip(lginv, lx)]
        if zero is not None and j:
            values[zero] = 0
        rows += transpose_bits(values, m)
    return rows


def syndrome_poly_by_product(code, s: BitVector) -> Poly:
    """Reference for `GoppaCode._syndrome_poly`: the t field elements s_u of
    the syndrome bits (bits u*m .. u*m + m - 1), and S_j = sum_u g_(j+1+u) *
    s_u read off as coefficients t and up of g(x) * sum_u s_u x^(t-1-u)."""
    m, t, bits = code.m, code.t, s.to_int()
    raw = [(bits >> (u * m)) & (code.field.order - 1) for u in reversed(range(t))]
    return Poly(code.field, (code.g * Poly(code.field, raw)).coeffs[t:])


def permute_columns(mat: BitMatrix, p: Permutation) -> BitMatrix:
    """Reference for `GoppaCode.permuted_h`: H * P, whose column j is column
    mapping[j] of H, by transposing H, picking its rows and transposing back."""
    if mat.cols != p.n:
        raise DimensionError("column count mismatch in permutation")
    columns = transpose(mat)
    picked = [columns.row(src).to_int() for src in p.mapping]
    return BitMatrix(mat.rows, mat.cols, transpose_bits(picked, mat.rows))


def as_matrix(p: Permutation) -> BitMatrix:
    """The matrix P with v * P = p.apply(v): row src has its bit at the
    target coordinate that src feeds."""
    return BitMatrix(p.n, p.n, [1 << j for j in p.inverse().mapping])


def _rref(row_ints: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form on a copy; returns (rows, pivot cols).

    Augmented columns may ride along above `cols`; they are eliminated with
    the rest of the row but never chosen as pivots.
    """
    rows = list(row_ints)
    height = len(rows)
    pivots = []
    r = 0
    for c in range(cols):
        mask = 1 << c
        for i in range(r, height):
            if rows[i] & mask:
                break
        else:
            continue
        pivot = rows[i]
        rows[i] = rows[r]
        # the pivot row clears its own bit too, so it is put back after
        rows = [row ^ pivot if row & mask else row for row in rows]
        rows[r] = pivot
        pivots.append(c)
        r += 1
        if r == height:
            break
    return rows, pivots


def kernel_basis(mat: BitMatrix) -> list[BitVector]:
    """Basis of the right kernel {x : mat * x = 0}."""
    n = mat.cols
    rows, pivots = _rref([mat.row(i).to_int() for i in range(mat.rows)], n)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = 1 << free
        for i, c in enumerate(pivots):
            if (rows[i] >> free) & 1:
                v |= 1 << c
        basis.append(BitVector(n, v))
    return basis


def rank_by_basis(row_ints) -> int:
    """Rank over GF(2) without `_rref`: each row is reduced by an XOR
    basis kept in descending order, so distinct leading bits, and a row
    left nonzero joins it."""
    basis = []
    for row in row_ints:
        for b in basis:
            row = min(row, row ^ b)  # clears b's leading bit where row has it
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def rand_invertible_by_rank(r: int, rng) -> BitMatrix:
    """Reference for `linalg.rand_invertible`: r rows of r random bits,
    drawn again until their rank is r."""
    while True:
        rows = [rng.getrandbits(r) for _ in range(r)]
        if rank_by_basis(rows) == r:
            return BitMatrix(r, r, rows)


# DIGITS[b] maps a byte to the ASCII digit of its bit b
DIGITS = [bytes(0x30 | (v >> b) & 1 for v in range(256)) for b in range(8)]


def transpose_by_digits(values: list[int], width: int) -> list[int]:
    """Reference for `linalg.transpose_bits`: every value's bytes, last value
    first, turned into ASCII digits one bit position of a byte at a time;
    output row b is byte b >> 3 of every value in the digits of bit b & 7,
    read by one `int(..., 2)`."""
    if not values:
        return [0] * width
    nb = max(1, (width + 7) // 8)
    data = b"".join([v.to_bytes(nb, "little") for v in reversed(values)])
    rows = [0] * width
    for k, table in enumerate(DIGITS[: min(width, 8)]):
        digits = data.translate(table)
        rows[k::8] = [int(digits[b >> 3 :: nb], 2) for b in range(k, width, 8)]
    return rows


def rank_by_rref(mat: BitMatrix) -> int:
    """Reference for `linalg.rank`: the pivots of a row reduction over every
    column."""
    return len(_rref([mat.row(i).to_int() for i in range(mat.rows)], mat.cols)[1])


def inverse_by_rref(mat: BitMatrix) -> BitMatrix | None:
    """Reference for `linalg.inverse`: [S | I] reduced over S's columns; None
    when fewer than n pivots are found."""
    n = mat.cols
    aug = [mat.row(i).to_int() | 1 << (n + i) for i in range(n)]
    rows, pivots = _rref(aug, n)
    return BitMatrix(n, n, [r >> n for r in rows]) if len(pivots) == n else None


def mat_mul_by_set_bits(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Reference for `linalg.mat_mul`: row i is the XOR of the rows of b at
    the set bits of row i of a, one set bit at a time."""
    if a.cols != b.rows:
        raise DimensionError(f"{a.cols}-column times {b.rows}-row product")
    b_rows = [b.row(j).to_int() for j in range(b.rows)]
    out = []
    for i in range(a.rows):
        acc = 0
        bits = a.row(i).to_int()
        while bits:
            acc ^= b_rows[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        out.append(acc)
    return BitMatrix(a.rows, b.cols, out)


def rand_invertible_by_inverse(r: int, rng) -> BitMatrix:
    """Reference for `linalg.rand_invertible`: r rows of r random bits, drawn
    again until `inverse` finds an inverse."""
    while True:
        m = BitMatrix(r, r, [rng.getrandbits(r) for _ in range(r)])
        if inverse(m) is not None:
            return m


def rootless_quadratic(field: GF2m) -> Poly:
    """The first x^2 + x + b with no root in the field: irreducible, so its
    square builds a Goppa code (no support element is a root) whose g is
    reducible."""
    return next(
        q
        for b in range(1, field.order)
        if all((q := Poly(field, (b, 1, 1))).eval(a) for a in field.elements())
    )


def counter_mode_digest(data: bytes, nbits: int) -> BitVector:
    """Reference for `codehash.digest_bits`: SHA-256 of data || counter
    (4 bytes, big-endian) for counter = 0, 1, ... until nbits are out, the
    bytes read MSB first and truncated to nbits."""
    out = b""
    counter = 0
    while 8 * len(out) < nbits:
        out += hashlib.sha256(data + counter.to_bytes(4, "big")).digest()
        counter += 1
    return BitVector.from_bytes(out[: (nbits + 7) // 8], nbits)


def encodable_counter(value, r: int) -> bool:
    """Whether a signature's counter or nonce fits the hashed field."""
    return isinstance(value, int) and 0 <= value < 1 << (8 * counter_width(r))


def gate(counter: str | None, sig, pk) -> bool:
    """What every verifier checks before the digest: an n-bit error of
    weight at most t and, if the scheme has one, a counter or nonce that
    the hashed field can hold."""
    error = getattr(sig, "error", None)
    if not isinstance(error, BitVector) or error.n != pk.h_pub.cols or error.weight > pk.t:
        return False
    return counter is None or encodable_counter(getattr(sig, counter, None), pk.h_pub.rows)


def gated_verify(scheme, msg: bytes, sig, pk) -> bool:
    """Reference for `Scheme.verify`: the gate, then the digest equals
    H_pub * e as BitVectors.  cfs and mcfs digests come from
    `counter_mode_digest`; the code-hash digests from the scheme record."""
    if not gate(scheme.counter, sig, pk):
        return False
    c = None if scheme.counter is None else getattr(sig, scheme.counter)
    if scheme.name in ("cfs", "mcfs"):
        r = pk.h_pub.rows
        digest = counter_mode_digest(msg + c.to_bytes(counter_width(r), "big"), r)
    else:
        digest = scheme.digest(msg, c, pk)
    return digest == mat_vec(pk.h_pub, sig.error)
