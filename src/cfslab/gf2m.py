"""GF(2^m) arithmetic and polynomials over it.

Field elements are integers in [0, 2^m) whose bits are the coefficients of
a polynomial over GF(2); arithmetic is modulo a fixed primitive polynomial,
one per extension degree (classic table, x is a generator in every case):

    m=2 : x^2 + x + 1
    m=3 : x^3 + x + 1
    m=4 : x^4 + x + 1
    m=5 : x^5 + x^2 + 1
    m=6 : x^6 + x + 1
    m=7 : x^7 + x^3 + 1
    m=8 : x^8 + x^4 + x^3 + x^2 + 1
    m=9 : x^9 + x^4 + 1
    m=10: x^10 + x^3 + 1
    m=11: x^11 + x^2 + 1
    m=12: x^12 + x^6 + x^4 + x + 1
    m=13: x^13 + x^4 + x^3 + x + 1
    m=14: x^14 + x^10 + x^6 + x + 1
    m=15: x^15 + x + 1
    m=16: x^16 + x^12 + x^3 + x + 1

Pinning the table makes key generation reproducible across runs and
machines.  Everything here is a pure function on immutable values.

Validation happens where a value enters, not on every multiply.  The public
`GF2m` methods check their operands, `Poly(field, coeffs)` checks every
coefficient, `Poly.eval` checks its point and `Poly.scale` its factor; a
value outside the field raises ValueError there.  Past those gates a
`Poly`'s coefficients are field elements by construction, so `Poly`
arithmetic and `frobenius_mod` index the exp/log tables directly and build
their results with an unchecked constructor.  Root finding is not here: the
decoder reads a locator's roots off the code's bit-sliced parity-check rows
(`goppa.GoppaCode.root_mask`).

`sliced_mul`, `sliced_square` and `sliced_inv` compute on bit planes, one
field element per position of an n-bit int, and build those rows
(`goppa.GoppaCode`): the cost is a few hundred big-int ANDs and XORs,
whatever n is, where the exp/log tables would take one lookup per position.
"""

from __future__ import annotations

from functools import cache
from itertools import zip_longest

from .errors import InversionOfZero, NotInvertible

_REDUCTION = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


@cache
def _tables(m: int) -> tuple[tuple[int, ...], ...]:
    """exp (doubled, so a sum of two logs indexes it), log and sqrt tables
    of GF(2^m): built once per m, immutable, shared by every GF2m(m)."""
    order, modulus = 1 << m, _REDUCTION[m]
    exp = [0] * (2 * order)
    log = [0] * order
    v = 1
    for i in range(order - 1):
        exp[i] = v
        log[v] = i
        v <<= 1  # multiply by x
        if v & order:
            v ^= modulus
    for i in range(order - 1, 2 * order):
        exp[i] = exp[i - (order - 1)]
    # sqrt table: squaring is a bijection in characteristic 2, and
    # (alpha^k)^2 = alpha^(2k)
    sq = [0] * order
    for k in range(order - 1):
        sq[exp[2 * k]] = exp[k]
    return tuple(exp), tuple(log), tuple(sq)


# Bit-sliced arithmetic: a field element at each of n positions, held as m
# "bit planes", plane b an n-bit int whose bit i is bit b of the element at
# position i.  One AND or XOR of two planes then acts on every position at
# once (McBits, Bernstein, Chou & Schwabe, CHES 2013).  Positions are
# independent, so a 0 somewhere stays 0 through the inverse below.


def _fold(prod: list[int], m: int) -> list[int]:
    """The planes of a product's coefficients x^0 .. x^(len - 1) reduced to
    degree below m: each x^k with k >= m, highest first, folded back by
    x^m = the modulus' lower terms."""
    low = [d for d in range(m) if _REDUCTION[m] >> d & 1]  # x^m = sum of these x^d
    for k in range(len(prod) - 1, m - 1, -1):
        top = prod[k]
        if top:
            for d in low:
                prod[k - m + d] ^= top
    return prod[:m]


def sliced_mul(a: list[int], b: list[int], m: int) -> list[int]:
    """The planes of a*b at every position: the m^2 plane products of the
    schoolbook rule, then `_fold`."""
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] ^= ai & bj
    return _fold(prod, m)


def sliced_square(a: list[int], m: int) -> list[int]:
    """The planes of a^2: in characteristic 2, (sum a_b x^b)^2 is
    sum a_b x^(2b), so plane b moves to degree 2b before `_fold`."""
    prod = [0] * (2 * m - 1)
    prod[::2] = a
    return _fold(prod, m)


def sliced_inv(a: list[int], m: int) -> list[int]:
    """The planes of a^(2^m - 2): 1/a at every nonzero position and 0 at a
    zero one.  Itoh-Tsujii: with beta_k = a^(2^k - 1), beta_(2k) is
    beta_k^(2^k) * beta_k and beta_(k+1) is beta_k^2 * a; walking the bits
    of m - 1 from the top reaches beta_(m-1) in under 2 log2(m) multiplies,
    and its square is the inverse."""
    beta, k = a, 1
    for bit in bin(m - 1)[3:]:
        high = beta
        for _ in range(k):
            high = sliced_square(high, m)
        beta, k = sliced_mul(high, beta, m), 2 * k
        if bit == "1":
            beta, k = sliced_mul(sliced_square(beta, m), a, m), k + 1
    return sliced_square(beta, m)


class GF2m:
    """The field GF(2^m) for 2 <= m <= 16, with log/exp table arithmetic."""

    def __init__(self, m: int):
        if m not in _REDUCTION:
            raise ValueError(f"unsupported extension degree m={m}")
        self.m = m
        self.order = 1 << m
        self.modulus = _REDUCTION[m]
        self._exp, self._log, self._sqrt = _tables(m)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"{a:#x} is not an element of GF(2^{self.m})")

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise InversionOfZero("zero has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF2m) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("GF2m", self.m))

    def __repr__(self) -> str:
        return f"GF2m({self.m})"


class Poly:
    """Polynomial over a GF2m field; coefficients lowest degree first.

    Immutable; trailing zero coefficients are stripped, so the zero
    polynomial has empty coefficients and degree -1.  `_irreducible` is
    unset until `goppa` tests the polynomial, and then holds the verdict.
    """

    __slots__ = ("field", "coeffs", "_irreducible")

    def __new__(cls, field: GF2m, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            field._check(c)
        return _poly(field, coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field: GF2m) -> "Poly":
        return _poly(field, [])

    @classmethod
    def one(cls, field: GF2m) -> "Poly":
        return _poly(field, [1])

    @classmethod
    def x(cls, field: GF2m) -> "Poly":
        return _poly(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return _poly(self.field, [a ^ b for a, b in pairs])

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        field = self.field
        exp, log = field._exp, field._log
        logs_b = [(j, log[b]) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                la = log[a]
                for j, lb in logs_b:
                    out[i + j] ^= exp[la + lb]
        return _poly(field, out)

    def scale(self, c: int) -> "Poly":
        self.field._check(c)
        return self * _poly(self.field, [c])

    def __divmod__(self, divisor: "Poly"):
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        exp, log = field._exp, field._log
        order1 = field.order - 1
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = log[divisor.coeffs[-1]]
        low = [(j, log[b]) for j, b in enumerate(divisor.coeffs[:-1]) if b]
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                lq = (log[c] - lead) % order1
                q[i - dd] = exp[lq]
                for j, lb in low:
                    rem[i - dd + j] ^= exp[lq + lb]
        return _poly(field, q), _poly(field, rem[:dd])

    def __mod__(self, divisor: "Poly") -> "Poly":
        if len(self.coeffs) < len(divisor.coeffs):
            return self  # already reduced (and immutable)
        return divmod(self, divisor)[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        field = self.field
        return self * _poly(field, [field._exp[field.order - 1 - field._log[self.coeffs[-1]]]])

    def eval(self, point: int) -> int:
        field = self.field
        field._check(point)
        exp, log = field._exp, field._log
        lp = log[point]  # log[0] is a placeholder: a zero point keeps only f_0
        acc = 0
        for c in reversed(self.coeffs):
            acc = (exp[log[acc] + lp] if acc and point else 0) ^ c
        return acc

    def __repr__(self) -> str:
        return f"Poly(GF2m({self.field.m}), {list(self.coeffs)})"


_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__


def _poly(field: GF2m, coeffs: list) -> Poly:
    """A Poly from a list of field elements, taken over and not checked;
    trailing zeros are stripped.  The slots are set through their member
    descriptors, past the immutability guard."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    p = object.__new__(Poly)
    _set_field(p, field)
    _set_coeffs(p, tuple(coeffs))
    return p


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_mod_inv(f: Poly, g: Poly) -> Poly:
    """Inverse of f modulo g: extended Euclid run down to a constant.

    f is reduced mod g once, here; `%` hands back an f of lower degree
    than g unchanged, so neither this step nor the one that opens
    `partial_euclid` divides again.  Raises NotInvertible when gcd(f, g)
    is not constant, a zero f included.
    """
    u, v = partial_euclid(g, f % g, 0)
    if u.is_zero():  # the last nonzero remainder, gcd(f, g), is not constant
        raise NotInvertible("polynomials are not coprime")
    return v.scale(g.field.inv(u.coeffs[0]))


def frobenius_mod(h: Poly, f: Poly, k: int) -> Poly:
    """h^(2^k) mod a nonzero f, monic or not, by k squarings on the tables.

    A square is (sum a_i x^i)^2 = sum a_i^2 x^(2i); each one is reduced
    mod f, highest term first, before the next squaring.
    """
    h = list((h % f).coeffs)
    field = f.field
    exp, log = field._exp, field._log
    d = f.degree
    lead = log[f.coeffs[-1]]
    # (j, log of f_j / lead) for the nonzero terms below the leading one
    low = [(j, (log[c] - lead) % (field.order - 1)) for j, c in enumerate(f.coeffs[:-1]) if c]
    for _ in range(k):
        sq = [0] * (2 * len(h) - 1)
        sq[::2] = [exp[2 * log[c]] if c else 0 for c in h]
        for top in range(len(sq) - 1, d - 1, -1):
            c = sq[top]
            if c:
                lc = log[c]
                base = top - d
                for j, lj in low:
                    sq[base + j] ^= exp[lc + lj]
        h = sq[:d]
    return _poly(field, h)


def sqrt_x_mod(g: Poly) -> Poly:
    """Square root of x in GF(2^m)[x]/(g); g irreducible of degree t >= 2.

    Split g by the parity of its exponents, g = g0(x)^2 + x * g1(x)^2,
    where g0 and g1 take the field square roots of g's even and odd
    coefficients.  Then g0^2 = x * g1^2 mod g, so sqrt(x) = g0 / g1 mod g:
    one inverse and one product.  g1 is not zero, since g would then be
    the square g0^2, and an irreducible g is not; its degree is below g's,
    so g1 is invertible mod g.
    """
    field = g.field
    sqrt = field._sqrt
    g0 = _poly(field, [sqrt[c] for c in g.coeffs[0::2]])
    g1 = _poly(field, [sqrt[c] for c in g.coeffs[1::2]])
    return (g0 * poly_mod_inv(g1, g)) % g


def poly_sqrt_mod_g(f: Poly, g: Poly, sqrt_x: Poly) -> Poly:
    """Square root of f modulo irreducible g.

    Splits f into even and odd coefficients, takes coefficient-wise field
    square roots, and recombines with sqrt(x) mod g (`sqrt_x_mod`).
    """
    field = f.field
    f = f % g
    sqrt = field._sqrt
    even = _poly(field, [sqrt[c] for c in f.coeffs[0::2]])
    odd = _poly(field, [sqrt[c] for c in f.coeffs[1::2]])
    return (even + sqrt_x * odd) % g


def partial_euclid(a: Poly, b: Poly, stop_deg: int) -> tuple[Poly, Poly]:
    """Extended Euclid on (a, b) stopped at the given remainder degree.

    Returns (u, v) with u = v*b (mod a), deg u <= stop_deg and
    deg v <= deg a - stop_deg - 1.  A zero b gives (0, 1): in the decoder
    that is tau = 0, a single error at the zero element, whose locator
    u^2 + x*v^2 is x.
    """
    if not 0 <= stop_deg < a.degree:
        raise ValueError("stop degree out of range")
    if b.degree > a.degree:
        raise ValueError("deg b must not exceed deg a")
    field = a.field
    r0, r1 = a, b % a
    v0, v1 = Poly.zero(field), Poly.one(field)
    while r1.degree > stop_deg:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        v0, v1 = v1, v0 + q * v1
    return r1, v1
