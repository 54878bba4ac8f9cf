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
"""

from __future__ import annotations

from .errors import DegenerateSyndrome, InversionOfZero, NotInvertible

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


class GF2m:
    """The field GF(2^m) for 2 <= m <= 16, with log/exp table arithmetic."""

    def __init__(self, m: int):
        if m not in _REDUCTION:
            raise ValueError(f"unsupported extension degree m={m}")
        self.m = m
        self.order = 1 << m
        self.modulus = _REDUCTION[m]

        exp = [0] * (2 * self.order)
        log = [0] * self.order
        v = 1
        for i in range(self.order - 1):
            exp[i] = v
            log[v] = i
            v <<= 1  # multiply by x
            if v & self.order:
                v ^= self.modulus
        for i in range(self.order - 1, 2 * self.order):
            exp[i] = exp[i - (self.order - 1)]
        self._exp = exp
        self._log = log
        # sqrt table: squaring is a bijection in characteristic 2
        sq = [0] * self.order
        for a in range(self.order):
            sq[self.mul(a, a)] = a
        self._sqrt = sq

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

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def sqrt(self, a: int) -> int:
        self._check(a)
        return self._sqrt[a]

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
    polynomial has empty coefficients and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF2m, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            field._check(c)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field: GF2m) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: GF2m) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: GF2m) -> "Poly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[i] ^ other[i] for i in range(n)))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        mul = self.field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return Poly(self.field, out)

    def scale(self, c: int) -> "Poly":
        mul = self.field.mul
        return Poly(self.field, (mul(c, a) for a in self.coeffs))

    def __divmod__(self, divisor: "Poly"):
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dd = divisor.degree
        lead_inv = field.inv(divisor.coeffs[-1])
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = field.mul(c, lead_inv)
            q[i - dd] = f
            for j, b in enumerate(divisor.coeffs):
                rem[i - dd + j] ^= field.mul(f, b)
        return Poly(field, q), Poly(field, rem)

    def __mod__(self, divisor: "Poly") -> "Poly":
        return divmod(self, divisor)[1]

    def __floordiv__(self, divisor: "Poly") -> "Poly":
        return divmod(self, divisor)[0]

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
        return self.scale(self.field.inv(self.coeffs[-1]))

    def eval(self, point: int) -> int:
        field = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = field.mul(acc, point) ^ c
        return acc

    def frobenius_square(self) -> "Poly":
        """Square via (sum a_i x^i)^2 = sum a_i^2 x^(2i)."""
        field = self.field
        out = [0] * (2 * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[2 * i] = field.mul(c, c)
        return Poly(field, out)

    def __repr__(self) -> str:
        return f"Poly(GF2m({self.field.m}), {list(self.coeffs)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_mod_inv(f: Poly, g: Poly) -> Poly:
    """Inverse of f modulo g via the extended Euclidean algorithm.

    Raises NotInvertible when gcd(f, g) is not constant.
    """
    field = f.field
    r0, r1 = g, f % g
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 + q * t1
    if r0.degree != 0:
        raise NotInvertible("polynomials are not coprime")
    return t0.scale(field.inv(r0.coeffs[0])) % g


def sqrt_x_mod(g: Poly, m: int) -> Poly:
    """Square root of x in GF(2^m)[x]/(g); g irreducible of degree t.

    The residue field has 2^(m*t) elements, so squaring m*t - 1 times
    inverts one squaring.
    """
    h = Poly.x(g.field)
    for _ in range(m * g.degree - 1):
        h = h.frobenius_square() % g
    return h


def poly_sqrt_mod_g(f: Poly, g: Poly, sqrt_x: Poly | None = None) -> Poly:
    """Square root of f modulo irreducible g.

    Splits f into even and odd coefficients, takes coefficient-wise field
    square roots, and recombines with a (precomputable) sqrt(x) mod g.
    """
    field = f.field
    f = f % g
    if sqrt_x is None:
        sqrt_x = sqrt_x_mod(g, field.m)
    even = Poly(field, (field.sqrt(c) for c in f.coeffs[0::2]))
    odd = Poly(field, (field.sqrt(c) for c in f.coeffs[1::2]))
    return (even + sqrt_x * odd) % g


def poly_roots(f: Poly, points) -> list[int] | None:
    """Positions i, in increasing order, with f(points[i]) == 0; or None
    when f cannot have deg f distinct roots in GF(2^m).

    The split test comes first: f has deg f distinct roots in the field iff
    f divides x^(2^m) - x, i.e. iff x^(2^m) == x (mod f), which takes m
    squarings mod f.  Only a splitting f is evaluated at the points, by
    Horner's rule in the log domain, and the scan stops at the deg f-th
    root.  The zero polynomial is never split.  Arithmetic runs on the
    exp/log tables directly: f's coefficients were checked when f was
    built, and the points must be field elements (a code support is).
    """
    field = f.field
    exp, log = field._exp, field._log
    d = f.degree
    if d < 0:
        return None
    if d == 0:
        return []
    # monic copy of f; exp[] is long enough to index with a sum of two logs
    inv_lead = field.order - 1 - log[f.coeffs[-1]]
    mon = [exp[log[c] + inv_lead] if c else 0 for c in f.coeffs]
    if d >= 2:
        # (j, log f_j) for the nonzero terms below the leading one
        low = [(j, log[c]) for j, c in enumerate(mon[:-1]) if c]
        x_mod_f = [0, 1] + [0] * (d - 2)
        h = x_mod_f
        for _ in range(field.m):
            sq = [0] * (2 * d - 1)
            for i, c in enumerate(h):
                if c:
                    sq[2 * i] = exp[2 * log[c]]
            for k in range(2 * d - 2, d - 1, -1):
                c = sq[k]
                if c:
                    lc = log[c]
                    base = k - d
                    for j, lj in low:
                        sq[base + j] ^= exp[lc + lj]
            h = sq[:d]
        if h != x_mod_f:
            return None
    rest = mon[-2::-1]  # coefficients below the leading 1, highest first
    roots = []
    for i, p in enumerate(points):
        if p:
            lp = log[p]
            acc = 1
            for c in rest:
                acc = exp[log[acc] + lp] ^ c if acc else c
        else:
            acc = mon[0]
        if not acc:
            roots.append(i)
            if len(roots) == d:
                break
    return roots


def partial_euclid(a: Poly, b: Poly, stop_deg: int) -> tuple[Poly, Poly]:
    """Extended Euclid on (a, b) stopped at the given remainder degree.

    Returns (u, v) with u = v*b (mod a), deg u <= stop_deg and
    deg v <= deg a - stop_deg - 1.  A zero b has no meaningful answer
    here (it corresponds to a degenerate zero syndrome upstream), so it
    is rejected outright.
    """
    if b.is_zero():
        raise DegenerateSyndrome("stopped Euclid on the zero polynomial")
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
