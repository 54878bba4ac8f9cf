"""Dense GF(2) vectors, matrices and permutations.

Vectors and matrix rows are packed into Python integers: coordinate i of a
vector is bit i of the integer, so XOR of rows is word-parallel for free.
The byte/hex codec of a vector is a separate, fixed convention: coordinate
0 maps to the most significant bit of the first byte, which keeps files
big-endian and byte-aligned regardless of length.  Coordinate i is bit
7 - (i & 7) of byte i >> 3, so once each byte's bits are reversed
(`_BITREV`, one `bytes.translate`) the convention is exactly Python's
little-endian int codec: `int.from_bytes`/`int.to_bytes` do the rest.
Matrices have no text form here; the key files write one as a hex row
per line (`keyfiles`).

`transpose_bits` runs no loop per bit in the interpreter, with one layout
per kind of input.  Narrow values (at most 16 bits: n field elements per
Goppa build, too many for a call each) are packed by one little-endian
`struct.pack`, last value first; one `bytes.translate` per bit position of
a byte turns the buffer into ASCII digits, and output row b is one strided
slice of them read by one `int(..., 2)`.  Wide values (matrix rows, read
as columns) are few: each is spread one bit per byte by `format`, and
`bytes.translate` puts value k of each group of eight on bit k, so the
eight OR-ed make a byte lane with one byte per output row.  Interleaved,
the lanes make each output row a run of adjacent bytes: one
`struct.unpack("<{n}Q")` reads every row of up to 64 values, and one
`int.from_bytes` per row reads more.

A matrix's columns are computed once: `columns()` transposes on its first
call and keeps the tuple, which `mat_vec` and `codehash.HashConfig` read.
No matrix is handed a column list: H*P is built from rows
(`goppa.GoppaCode.permuted_h`), so a public key's list is transposed by
whichever reads it first: `HashConfig` at set-up for mcfsc and tilde, the
first verify for cfs and mcfs.  A column list costs ~0.15-0.25 ms to
transpose at 40-60 x 1024 and ~30-40 ms at 144 x 65536 (m = 16), where it
holds ~3.3 MiB and the transpose ~1.2 MiB more while it runs.

One GF(2) elimination, an XOR basis keyed by leading bit (`_basis`), serves
`rank`, `rand_invertible` and `inverse`; none eliminates over all n columns
of H.  `inverse` feeds it S beside the identity and reads S^-1 off by
back-substitution.  It keeps its result on the matrix, "singular" included,
so S^-1 lives on S alone: the secret key's invertibility check computes it
once, and every signature reads it from there.

`mat_vec` reads a matrix through a table: a matrix of at most 256 columns
(every scrambler inverse S^-1, H and H_pub at m <= 8) gets "four
Russians" chunk tables (Arlazarov et al. 1970; M4RI), built by its first
product and cached on the matrix: entry b of table k is the XOR of the
columns 8k + j for the set bits j of b, so a product is one XOR per byte
of v.  Costs: ceil(cols/8) tables of 256 ints of `rows` bits, ~0.2 MiB at
144 x 144.  A wider matrix (H and H_pub at m >= 9) is read through its
column list, and a product is one XOR per set bit of v, as cheap as the
sparse error vectors and regular words it meets.  `mat_mul` reads the
rows of b through the same kind of tables, over 6 rows each, built one at
a time and not kept.

`Permutation(mapping)` checks the mapping and builds its inverse in one
pass, one write per entry.

Everything is immutable after construction; operations return new values.
The cached columns, tables and inverse are not part of a matrix's value:
equality and hashing ignore them.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from .errors import DimensionError
from .metering import tick_matvec


# _BITREV[b] is byte b with its eight bits in reverse order
_BITREV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


# _BIT_DIGITS[b] maps a byte to the ASCII digit of its bit b, so one
# `bytes.translate` turns a byte per value into a binary numeral
_BIT_DIGITS = [bytes(0x30 | (v >> b) & 1 for v in range(256)) for b in range(8)]

# _LANE_BITS[k] maps the ASCII digit "1" to bit k of a byte and "0" to 0
_LANE_BITS = [bytes((v & 1) << k for v in range(256)) for k in range(8)]


def transpose_bits(values: list[int], width: int) -> list[int]:
    """Transpose non-negative ints below 2^width into width packed rows:
    bit i of row b is bit b of values[i].  Many wide values cost four calls
    each: 65536 of 144 bits take 118.7 ms, against 64.5 ms through digits
    (one timeit run, 2-core x86_64)."""
    if not values:
        return [0] * width  # int(b"", 2) would raise
    if width <= 16:  # field elements: one struct.pack, little-endian everywhere
        # int(..., 2) reads the most significant digit first: values[0] goes last
        nb = 1 if width <= 8 else 2
        data = struct.pack(f"<{len(values)}{'BH'[nb - 1]}", *reversed(values))
        rows = [0] * width
        for k, table in enumerate(_BIT_DIGITS[: min(width, 8)]):
            digits = data.translate(table)  # one copy of the buffer alive at a time
            rows[k::8] = [int(digits[b >> 3 :: nb], 2) for b in range(k, width, 8)]
        return rows
    # byte g of output row b, at offset b * stride + g, holds bit b of values
    # 8g..8g+7, value 8g + k in bit k; format puts bit 0 last, so each lane
    # is read big-endian
    fmt = f"0{width}b"
    lanes = (len(values) + 7) // 8
    stride = max(lanes, 8)
    buf = bytearray(stride * width)
    for g in range(lanes):
        lane = 0
        for table, v in zip(_LANE_BITS, values[8 * g : 8 * g + 8]):
            lane |= int.from_bytes(format(v, fmt).encode().translate(table), "big")
        buf[g::stride] = lane.to_bytes(width, "little")
    if stride == 8:
        return list(struct.unpack(f"<{width}Q", buf))
    return [int.from_bytes(row, "little") for (row,) in struct.iter_unpack(f"{stride}s", buf)]


class BitVector:
    __slots__ = ("n", "_bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise DimensionError("negative length")
        if bits < 0 or bits >> n:
            raise ValueError("value has bits outside the vector length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("BitVector is immutable")

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def from_indices(cls, n: int, indices) -> "BitVector":
        acc = 0
        for i in indices:
            if not 0 <= i < n:
                raise DimensionError(f"index {i} out of range for length {n}")
            acc |= 1 << i
        return cls(n, acc)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitVector":
        if len(data) != (n + 7) // 8:
            raise DimensionError("byte string has the wrong length")
        # pad bits past coordinate n - 1 in the last byte are ignored
        return cls(n, int.from_bytes(data.translate(_BITREV), "little") & ((1 << n) - 1))

    @classmethod
    def from_hex(cls, s: str, n: int) -> "BitVector":
        return cls.from_bytes(bytes.fromhex(s), n)

    def to_bytes(self) -> bytes:
        return self._bits.to_bytes((self.n + 7) // 8, "little").translate(_BITREV)

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    def to_int(self) -> int:
        """The raw packed value (bit i of the int = coordinate i)."""
        return self._bits

    @property
    def weight(self) -> int:
        return self._bits.bit_count()

    def support(self) -> tuple[int, ...]:
        out = []
        bits = self._bits
        while bits:
            i = (bits & -bits).bit_length() - 1
            out.append(i)
            bits &= bits - 1
        return tuple(out)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self._bits >> i) & 1

    def __iter__(self):
        return ((self._bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if other.n != self.n:
            raise DimensionError("length mismatch in xor")
        return BitVector(self.n, self._bits ^ other._bits)

    def flip(self, i: int) -> "BitVector":
        if not 0 <= i < self.n:
            raise IndexError(i)
        return BitVector(self.n, self._bits ^ (1 << i))

    def is_zero(self) -> bool:
        return self._bits == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and other.n == self.n
            and other._bits == self._bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self)!r})"


_set_n = BitVector.n.__set__
_set_bits = BitVector._bits.__set__


def _bitvector(n: int, bits: int) -> BitVector:
    """A BitVector from 0 <= bits < 2^n, taken as given and not checked.
    The slots are set through their member descriptors, past the
    immutability guard."""
    v = object.__new__(BitVector)
    _set_n(v, n)
    _set_bits(v, bits)
    return v


class BitMatrix:
    """r x c matrix over GF(2), rows packed as integers."""

    __slots__ = ("rows", "cols", "_rows", "_columns", "_table", "_inverse")

    def __init__(self, rows: int, cols: int, row_ints=None):
        if rows < 0 or cols < 0:
            raise DimensionError("negative shape")
        if row_ints is None:
            row_ints = [0] * rows
        row_ints = list(row_ints)
        if len(row_ints) != rows:
            raise DimensionError("row count mismatch")
        for r in row_ints:
            if r < 0 or r >> cols:
                raise ValueError("row has bits outside the column range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_rows", row_ints)
        object.__setattr__(self, "_columns", None)  # columns(), built on first use
        object.__setattr__(self, "_table", None)  # mat_vec's chunk tables, likewise
        object.__setattr__(self, "_inverse", None)  # inverse(): a BitMatrix, or False if singular

    def __setattr__(self, *_):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self._rows[i])

    def columns(self) -> tuple[int, ...]:
        """Every column packed as an int: bit i of entry j is row i, column j.
        Transposed on the first call and kept; threads that race here build
        equal tuples, and either may stay."""
        cols = self._columns
        if cols is None:
            cols = tuple(transpose_bits(self._rows, self.cols))
            _set_columns(self, cols)
        return cols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return (self._rows[i] >> j) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and other._rows == self._rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self._rows)))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


class Permutation:
    """Permutation of n coordinates, stored as an index array and its inverse.

    mapping[j] is the source coordinate feeding target coordinate j under
    right multiplication: (v * P)[j] = v[mapping[j]], and column j of H * P
    is column mapping[j] of H.
    """

    __slots__ = ("mapping", "_inverse")

    def __init__(self, mapping):
        mapping = tuple(mapping)
        n = len(mapping)
        # _inverse[src] is the target coordinate that source src feeds.  The
        # n writes fill all n slots only if no source repeats; a negative
        # source would index from the end, so the sources' minimum is checked
        inv = [-1] * n
        try:
            for j, src in zip(range(n), mapping):
                inv[src] = j
            bijective = n == 0 or min(inv) >= 0 and min(mapping) >= 0
        except (IndexError, TypeError):  # past the end, or not an integer
            bijective = False
        if not bijective:
            raise ValueError("mapping is not a bijection on 0..n-1")
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_inverse", inv)

    def __setattr__(self, *_):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def random(cls, n: int, rng) -> "Permutation":
        idx = list(range(n))
        rng.shuffle(idx)
        return cls(idx)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def apply(self, v: BitVector) -> BitVector:
        """Right multiplication v * P: each set bit src moves to _inverse[src]."""
        if v.n != self.n:
            raise DimensionError("length mismatch in permutation")
        inv = self._inverse
        bits = v.to_int()
        acc = 0
        while bits:
            low = bits & -bits
            acc |= 1 << inv[low.bit_length() - 1]
            bits ^= low
        return BitVector(self.n, acc)

    def inverse(self) -> "Permutation":
        return Permutation(self._inverse)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and other.mapping == self.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"

    def to_text(self) -> str:
        return " ".join(["%d"] * self.n) % self.mapping

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(map(int, text.split()))


# widest matrix that mat_vec reads through byte-chunk tables
_CHUNKED_MAX_COLS = 256

# rows of b per mat_mul table: 64 entries, faster than 256 at every
# S * (H * P) shape from m = 5 to m = 16
_MUL_CHUNK_BITS = 6

_set_columns = BitMatrix._columns.__set__
_set_table = BitMatrix._table.__set__
_set_inverse = BitMatrix._inverse.__set__


def _chunk_tables(vecs: list[int], bits: int) -> Iterator[list[int]]:
    """Per `bits` vectors, the XOR of every subset of them, indexed by the
    subset's bits; the last table is shorter when len(vecs) % bits != 0.
    Yielded one table at a time."""
    for k in range(0, len(vecs), bits):
        table = [0]
        for c in vecs[k : k + bits]:
            table += [x ^ c for x in table]
        yield table


def mat_vec(mat: BitMatrix, v: BitVector) -> BitVector:
    """H * v^T as a length-rows(H) vector: the XOR of the columns that v
    selects, read through the matrix's cached chunk tables or columns."""
    if mat.cols != v.n:
        raise DimensionError(f"{mat.cols}-column matrix times length-{v.n} vector")
    tick_matvec()
    bits = v._bits
    acc = 0
    if mat.cols <= _CHUNKED_MAX_COLS:
        table = mat._table
        if table is None:  # threads that race here build equal tables; either may stay
            table = list(_chunk_tables(mat.columns(), 8))
            _set_table(mat, table)
        for chunk, byte in zip(table, bits.to_bytes(len(table), "little")):
            acc ^= chunk[byte]
    else:
        cols = mat.columns()
        while bits:
            low = bits & -bits
            acc ^= cols[low.bit_length() - 1]
            bits ^= low
    return _bitvector(mat.rows, acc)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): row i of the result is the XOR of the rows
    of b selected by row i of a, read `_MUL_CHUNK_BITS` rows of b at a time
    through one chunk table, so one XOR per chunk of a's row.  One table
    of 64 entries is alive at a time, ~0.5 MiB at 144 x 65536."""
    if a.cols != b.rows:
        raise DimensionError(f"{a.cols}-column times {b.rows}-row product")
    mask = (1 << _MUL_CHUNK_BITS) - 1
    out = [0] * a.rows
    for k, table in enumerate(_chunk_tables(b._rows, _MUL_CHUNK_BITS)):
        shift = k * _MUL_CHUNK_BITS
        out = [acc ^ table[r >> shift & mask] for acc, r in zip(out, a._rows)]
    return BitMatrix(a.rows, b.cols, out)


def _basis(row_ints: list[int]) -> dict[int, int]:
    """An XOR basis of packed rows keyed by leading bit (`bit_length`): each
    row is reduced by it until its leading bit is new or nothing is left.
    Its size is the rows' rank."""
    basis = {}
    for row in row_ints:
        while row:
            lead = row.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return basis


def rank(mat: BitMatrix) -> int:
    """Rank over GF(2), from the first 2 * rows columns: when those already
    have full row rank, so has the matrix.  Only when they fall short is
    the window doubled, up to the full width.  H at m = 16 is 65536
    columns wide; its rows cut to 288 bits keep every XOR short."""
    rows, window = mat._rows, 2 * mat.rows
    while window < mat.cols:
        low = (1 << window) - 1
        if len(_basis([row & low for row in rows])) == mat.rows:
            return mat.rows
        window *= 2
    return len(_basis(rows))


def inverse(mat: BitMatrix) -> BitMatrix | None:
    """Inverse of a square matrix S, or None when singular.  Row i of S,
    shifted above bit i of the identity, goes into `_basis`: S is singular
    iff a pivot lands at or below bit n.  Else, lowest first, the pivot at
    n + 1 + b is cleared of the pivots below it, which leaves row b of S^-1
    in its low n bits.  Computed on the first call and kept on the matrix."""
    if mat.rows != mat.cols:
        raise DimensionError("only square matrices can be inverted")
    inv = mat._inverse
    if inv is None:  # threads that race here compute equal results; either may stay
        n = mat.cols
        basis = _basis([r << n | 1 << i for i, r in enumerate(mat._rows)])
        inv = False
        if min(basis, default=n + 1) > n:
            out = []  # out[b]: bit n + b, and row b of S^-1 below it
            for b in range(n):
                row = basis[n + 1 + b]
                below = row >> n ^ 1 << b  # the pivots below this one that row holds
                while below:
                    bit = below & -below
                    row ^= out[bit.bit_length() - 1]
                    below ^= bit
                out.append(row)
            inv = BitMatrix(n, n, [row ^ 1 << n + b for b, row in enumerate(out)])
        _set_inverse(mat, inv)
    return inv or None


def rand_invertible(r: int, rng) -> BitMatrix:
    """A uniformly random invertible r x r matrix: r rows of r random bits,
    drawn again until they have full rank.  No inverse is computed here:
    `inverse` computes it once, for the one draw that is kept."""
    if r < 1:
        raise DimensionError("size must be positive")
    while True:
        rows = [rng.getrandbits(r) for _ in range(r)]
        if len(_basis(rows)) == r:
            return BitMatrix(r, r, rows)
