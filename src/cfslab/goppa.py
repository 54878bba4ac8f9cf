"""Binary irreducible Goppa codes: construction, Patterson decoding, and
an exhaustive decodability census.

The parity-check matrix is built over GF(2^m) with rows x_i^j / g(x_i)
for j = 0..t-1 and then expanded bitwise to GF(2) (bit b of a field
element lands in binary row j*m + b).  The support is the whole field in
a shuffled order, so n = 2^m and n - k = m*t once the expansion has full
rank; rank-deficient draws are thrown away and regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParameters, CensusInfeasible, DimensionError
from .gf2m import (
    GF2m,
    Poly,
    _poly,
    frobenius_mod,
    partial_euclid,
    poly_gcd,
    poly_mod_inv,
    poly_roots,
    poly_sqrt_mod_g,
    sqrt_x_mod,
)
from .linalg import BitMatrix, BitVector, mat_vec, rank
from .metering import tick_decode


class GoppaCode:
    """An irreducible binary Goppa code plus everything Patterson needs."""

    def __init__(self, field: GF2m, g: Poly, support, h_matrix: BitMatrix):
        self.field = field
        self.g = g
        self.support = tuple(support)
        self.h = h_matrix
        self.m = field.m
        self.t = g.degree
        self.n = len(self.support)
        self.n_minus_k = self.t * self.m
        # sqrt(x) mod g, precomputed once for the decoder
        self._sqrt_x = sqrt_x_mod(g, field.m)

    @classmethod
    def build(cls, field: GF2m, g: Poly, support) -> "GoppaCode":
        support = tuple(support)
        if len(set(support)) != len(support):
            raise BadParameters("support elements must be distinct")
        if any(g.eval(x) == 0 for x in support):
            raise BadParameters("support contains a root of g")
        t = g.degree
        rows_gf2 = [0] * (t * field.m)
        for i, x in enumerate(support):
            ginv = field.inv(g.eval(x))
            e = ginv
            for j in range(t):
                for b in range(field.m):
                    if (e >> b) & 1:
                        rows_gf2[j * field.m + b] |= 1 << i
                e = field.mul(e, x)
        h = BitMatrix(t * field.m, len(support), rows_gf2)
        return cls(field, g, support, h)

    def syndrome_of(self, e: BitVector) -> BitVector:
        return mat_vec(self.h, e)

    def _syndrome_poly(self, s: BitVector) -> Poly:
        """Convert packed syndrome bits to sum_{i in e} 1/(x - x_i) mod g.

        The raw bits group into t field elements s_u = sum x_i^u / g(x_i);
        the classical syndrome polynomial coefficients are the triangular
        combination S_j = sum_u g_{j+1+u} * s_u, which is coefficient j + t
        of g(x) * sum_u s_u x^(t-1-u).
        """
        m, t, bits = self.m, self.t, s.to_int()
        raw = [(bits >> (u * m)) & (self.field.order - 1) for u in reversed(range(t))]
        return _poly(self.field, list((self.g * _poly(self.field, raw)).coeffs[t:]))

    def __repr__(self) -> str:
        return f"GoppaCode(m={self.m}, t={self.t}, n={self.n})"


def _random_monic_poly(field: GF2m, t: int, rng) -> Poly:
    return Poly(field, [rng.getrandbits(field.m) for _ in range(t)] + [1])


def _is_irreducible(g: Poly, field: GF2m) -> bool:
    """Degree-t g is irreducible iff it has no factor of degree <= t/2;
    checked with gcd(x^(2^(m*i)) - x, g) for i = 1..t//2."""
    x = Poly.x(field)
    h = x
    for _ in range(g.degree // 2):
        h = frobenius_mod(h, g, field.m)
        if poly_gcd(h + x, g).degree != 0:
            return False
    return True


def goppa_keygen(m: int, t: int, rng) -> GoppaCode:
    """Random irreducible Goppa code with full-field support.

    Draws degree-t monic polynomials until one is irreducible, shuffles
    the support, and regenerates whenever the GF(2) expansion of the
    parity-check matrix is rank deficient.
    """
    if t < 2:
        raise BadParameters("correction capability t must be at least 2")
    if m not in range(2, 17):
        raise BadParameters("extension degree m must be in 2..16")
    if m * t >= (1 << m):
        raise BadParameters(f"m*t = {m * t} leaves no code dimension at n = {1 << m}")
    field = GF2m(m)
    while True:
        g = _random_monic_poly(field, t, rng)
        if not _is_irreducible(g, field):
            continue
        support = list(field.elements())
        rng.shuffle(support)
        code = GoppaCode.build(field, g, support)
        if rank(code.h) == code.n_minus_k:
            return code


def patterson_decode(code: GoppaCode, s: BitVector) -> BitVector | None:
    """Error vector of weight <= t with the given syndrome, or None.

    None is a signal, not an error: it is what drives the retry loop in
    counter-based signing.  A successful result always satisfies both the
    weight bound and H * e = s (re-checked before returning, so a syndrome
    without a low-weight preimage can never be reported as decodable).

    The error locator sigma is tested for splitting before any root search:
    unless x^(2^m) == x (mod sigma) it has fewer than deg sigma distinct
    roots in the field, so the syndrome fails after m squarings mod sigma,
    without touching the support.  A locator that splits is evaluated over
    the support only until deg sigma roots are found (`poly_roots`).
    """
    if s.n != code.n_minus_k:
        raise DimensionError("syndrome length mismatch")
    tick_decode()
    if s.is_zero():
        return BitVector.zeros(code.n)
    field = code.field
    g = code.g
    t = code.t
    sp = code._syndrome_poly(s)
    x = Poly.x(field)
    t_poly = poly_mod_inv(sp, g)
    if t_poly == x:
        # single error at the support position holding the zero element
        locator = x
    else:
        tau = poly_sqrt_mod_g(t_poly + x, g, code._sqrt_x)
        u, v = partial_euclid(g, tau, t // 2)
        locator = u * u + x * (v * v)
    roots = poly_roots(locator, code.support)
    if roots is None or len(roots) != locator.degree:
        return None
    e = BitVector.from_indices(code.n, roots)
    if e.weight > t or mat_vec(code.h, e) != s:
        return None
    return e


@dataclass(frozen=True)
class CensusReport:
    """Exhaustive count of decodable syndromes against the closed form."""

    m: int
    t: int
    n: int
    decodable: int
    total: int
    closed_form: int

    @property
    def ratio(self) -> float:
        return self.decodable / self.total

    @property
    def t_factorial_approx(self) -> float:
        return 1.0 / math.factorial(self.t)

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "n": self.n,
            "decodable": self.decodable,
            "total": self.total,
            "ratio": self.ratio,
            "closed_form": self.closed_form,
            "t_factorial_approx": self.t_factorial_approx,
        }


CENSUS_LIMIT = 24


def decodable_census(code: GoppaCode) -> CensusReport:
    """Run the decoder over every syndrome and count the successes.

    The closed form sum_{i<=t} C(n, i) counts weight-<= t balls; the two
    numbers agree exactly when the minimum distance is >= 2t+1 and the
    decoder is sound.  Disagreement is reported, never papered over.
    """
    if code.t < 2:
        raise BadParameters("census needs t >= 2")
    r = code.n_minus_k
    if r > CENSUS_LIMIT:
        raise CensusInfeasible(f"2^{r} syndromes is past the exhaustive limit")
    decodable = 0
    for value in range(1 << r):
        if patterson_decode(code, BitVector(r, value)) is not None:
            decodable += 1
    closed = sum(math.comb(code.n, i) for i in range(code.t + 1))
    return CensusReport(
        m=code.m,
        t=code.t,
        n=code.n,
        decodable=decodable,
        total=1 << r,
        closed_form=closed,
    )
