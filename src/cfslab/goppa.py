"""Binary irreducible Goppa codes: construction, Patterson decoding, and
an exhaustive decodability census.

`GoppaCode(g, support)`, the only way to make a code, checks both and
builds the parity-check matrix over GF(2^m), rows x_i^j / g(x_i) for
j = 0..t-1, expanded bitwise to GF(2) (bit b of a field element lands in
binary row j*m + b).  Those binary rows are the field values bit-sliced
over the support, and the build computes them that way: the support is
transposed once into m bit planes X (`linalg.transpose_bits`), g(X) is
Horner's rule in bit-sliced multiplies, 1/g(X) an Itoh-Tsujii power and
each block X times the one before (`gf2m.sliced_mul`, `sliced_inv`), so
H costs about 2t + 2 log2(m) multiplies of m^2 big-int ANDs, whatever n
is.  Keygen's support is the whole field, shuffled, so n = 2^m and
n - k = m*t once the expansion has full rank; rank-deficient draws are
thrown away and regenerated.

`GoppaCode.permuted_h(P)` builds H*P the same way, on the support taken
in P's order: column j of H*P is the column of support[P.mapping[j]], so
its rows come out of the build directly and no column list of H is
transposed and permuted back.  It is the only H*P in the package: every
public key's, and the one `cfslab recover-perm` checks a recovered P with.

The decoder's root search reads the same planes back, and one block more:
the build takes Y_j = X * Y_(j-1) one step past H, to Y_t = x^t / g(x).
alpha^s times the m planes of Y_j, for every j <= t and s < m, is
precomputed once per code, and a locator's value at every support position
is then a handful of big-int XORs, every coefficient read the same way
(`GoppaCode.root_mask`, after McBits' bit-sliced root search).  The table
holds (t+1)*m entries of m*n bits, 20 MiB at m=16, t=9.  A position is a
root when all m of its planes are zero; the planes are ORed together by
halving, the upper half shifted onto the lower, so in ceil(log2 m) steps.

The syndrome polynomial is GF(2)-linear in the syndrome bits, so each code
also keeps a syndrome map: one int per syndrome bit, the coefficients of
S(x) that bit adds, packed m bits apiece.  A decode XORs the entries of the
set bits (`GoppaCode._syndrome_poly`), with no field product and no
product by H; Berlekamp-Massey's double-size syndrome map would have the
same layout.  Patterson's locator u^2 + x*v^2 is built by squaring
coefficients (`_locator`), with no polynomial product either.
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
    poly_sqrt_mod_g,
    sliced_inv,
    sliced_mul,
    sqrt_x_mod,
)
from .linalg import BitMatrix, BitVector, Permutation, mat_vec, rank, transpose_bits
from .metering import tick_decode


class GoppaCode:
    """An irreducible binary Goppa code over g's field plus everything
    Patterson needs.  BadParameters unless deg g >= 2, g is irreducible and
    no support element repeats; ValueError for one outside the field."""

    def __init__(self, g: Poly, support):
        field = g.field
        support = tuple(support)
        if len(set(support)) != len(support):
            raise BadParameters("support elements must be distinct")
        if support:  # an element outside the field is the least or the greatest
            field._check(min(support))
            field._check(max(support))
        if g.degree < 2:
            raise BadParameters("Goppa polynomial must have degree at least 2")
        if not _is_irreducible(g):
            raise BadParameters("Goppa polynomial is not irreducible")
        self.field = field
        self.g = g
        self.support = support
        self.m = field.m
        self.t = g.degree
        self.n = len(support)
        self.n_minus_k = self.t * self.m
        self._all_positions = (1 << self.n) - 1
        planes = self._planes(support, self.t + 1)
        self.h = self._matrix(planes[: self.t])
        # sqrt(x) mod g, precomputed once for the decoder
        self._sqrt_x = sqrt_x_mod(g)
        self._root_table = self._alpha_multiples(planes)
        # root_mask's plane OR: per halving, the width of the planes kept
        # and its mask, made once so that a decode builds no mask
        self._halvings = []
        kept = self.m
        while kept > 1:
            kept = (kept + 1) // 2
            self._halvings.append((kept * self.n, (1 << kept * self.n) - 1))
        self._syndrome_map = self._syndrome_entries()

    def _planes(self, support, blocks: int) -> list[list[int]]:
        """The m bit planes of Y_j = x_i^j / g(x_i) for j < blocks, computed
        at every position of `support` (n elements of the code's support, in
        any order) at once on the planes X of the support: g(X) by Horner,
        1/g(X) by Itoh-Tsujii, Y_j = X * Y_(j-1).  Y_0..Y_(t-1) are H's m*t
        rows; Y_t is for `root_mask` alone.  At the zero element every X
        plane is 0, so Y_0 = 1/g_0 there and Y_j = 0 for j >= 1, as
        x^j / g(x) is."""
        m = self.m
        x = transpose_bits(support, m)
        ones = self._all_positions
        gx = [0] * m
        for c in reversed(self.g.coeffs):
            gx = sliced_mul(gx, x, m)
            for b in range(m):
                if c >> b & 1:
                    gx[b] ^= ones
        y = sliced_inv(gx, m)  # g has no root in the field, so gx is nowhere 0
        planes = [y]
        for _ in range(blocks - 1):
            y = sliced_mul(x, y, m)
            planes.append(y)
        return planes

    def _matrix(self, planes: list[list[int]]) -> BitMatrix:
        """The parity-check matrix whose rows are the t blocks of planes."""
        return BitMatrix(self.n_minus_k, self.n, [row for y in planes for row in y])

    def permuted_h(self, perm: Permutation) -> BitMatrix:
        """H * P, built as H is but on the support in P's order: column j of
        H * P is column mapping[j] of H, the column of support[mapping[j]].
        DimensionError unless P permutes n coordinates."""
        if perm.n != self.n:
            raise DimensionError("column count mismatch in permutation")
        support = list(map(self.support.__getitem__, perm.mapping))
        return self._matrix(self._planes(support, self.t))

    def _alpha_multiples(self, planes: list[list[int]]) -> list[list[int]]:
        """The bit-sliced table `root_mask` reads: (t+1)*m entries of m*n bits.

        The m planes of x_i^j / g(x_i), packed side by side (plane b at bit
        offset b*n), form Y_j, and entry [j][s] is alpha^s * Y_j for
        j = 0..t.  Multiplying a packed value by alpha shifts every plane up
        one; the plane pushed out at the top is x^m, which the field's
        modulus folds back into the planes of its lower terms.
        """
        m, n = self.m, self.n
        low = (1 << ((m - 1) * n)) - 1
        # the offsets of the planes x^m folds into: a few shifts, where a
        # multiply by the packed modulus would cost a long-int product
        fold = [b * n for b in range(m) if (self.field.modulus >> b) & 1]
        table = []
        for y_planes in planes:
            y = sum(plane << (b * n) for b, plane in enumerate(y_planes))
            entry = [y]
            for _ in range(m - 1):
                top = y >> ((m - 1) * n)
                y = (y & low) << n
                for shift in fold:
                    y ^= top << shift
                entry.append(y)
            table.append(entry)
        return table

    def root_mask(self, sigma: Poly) -> int:
        """The support positions where sigma vanishes, as an n-bit int
        (bit i set iff sigma(x_i) == 0); deg sigma must not exceed t.

        sigma(x_i) / g(x_i) = sum_j sigma_j * x_i^j / g(x_i) is computed at
        every position at once, bit-sliced: coefficient c of x^j adds
        alpha^s * Y_j for each set bit s of c, for every j from 0 to t.
        Since g(x_i) != 0, the positions whose m planes are all zero are
        the roots.  The m planes are ORed together by halving: the upper
        half is shifted onto the lower, ceil(k/2) planes kept of k (an odd
        count keeps its middle plane as it is), so ceil(log2 m) steps.
        """
        if sigma.degree > self.t:
            raise ValueError(f"degree {sigma.degree} is above t = {self.t}")
        acc = 0
        for entry, c in zip(self._root_table, sigma.coeffs):
            while c:
                low = c & -c
                acc ^= entry[low.bit_length() - 1]
                c ^= low
        for width, low in self._halvings:
            acc = acc >> width | acc & low
        return acc ^ self._all_positions

    def _syndrome_entries(self) -> list[int]:
        """The syndrome map `_syndrome_poly` reads: one int per syndrome bit,
        the coefficients of S(x) that bit adds, packed m bits apiece
        (coefficient j at bit offset j*m).

        Bit b of the field element s_u = sum x_i^u / g(x_i) is syndrome bit
        u*m + b.  It stands for alpha^b, and s_u enters S_j with the factor
        g_(j+1+u) (see `_syndrome_poly`), so entry u*m + b holds
        g_(j+1+u) * alpha^b at coefficient j, for j + 1 + u <= t: that is
        g_(u+1) * alpha^b at coefficient 0 under entry (u+1)*m + b shifted
        up one coefficient, built from u = t-1 down.
        """
        m = self.m
        exp, log = self.field._exp, self.field._log
        blocks, block = [], [0] * m
        for c in reversed(self.g.coeffs[1:]):  # g_(u+1) for u = t-1 .. 0
            block = [e << m | (exp[log[c] + b] if c else 0) for b, e in enumerate(block)]
            blocks.append(block)
        return [entry for block in reversed(blocks) for entry in block]

    def _syndrome_poly(self, s: BitVector) -> Poly:
        """Convert packed syndrome bits to sum_{i in e} 1/(x - x_i) mod g.

        The raw bits group into t field elements s_u = sum x_i^u / g(x_i);
        the classical syndrome polynomial coefficients are the triangular
        combination S_j = sum_u g_{j+1+u} * s_u, which is coefficient j + t
        of g(x) * sum_u s_u x^(t-1-u).  That combination is GF(2)-linear in
        the bits, so S(x) is the XOR of the syndrome map's entries at the
        set bits of s, one XOR per set bit and no field product.
        """
        bits, entries = s.to_int(), self._syndrome_map
        acc = 0
        while bits:
            low = bits & -bits
            acc ^= entries[low.bit_length() - 1]
            bits ^= low
        m, mask = self.m, self.field.order - 1
        return _poly(self.field, [acc >> (j * m) & mask for j in range(self.t)])

    def __repr__(self) -> str:
        return f"GoppaCode(m={self.m}, t={self.t}, n={self.n})"


def _random_monic_poly(field: GF2m, t: int, rng) -> Poly:
    return Poly(field, [rng.getrandbits(field.m) for _ in range(t)] + [1])


_set_irreducible = Poly._irreducible.__set__


def _is_irreducible(g: Poly) -> bool:
    """Degree-t g is irreducible iff it has no factor of degree <= t/2;
    checked with gcd(x^(2^(m*i)) - x, g) for i = 1..t//2.  The verdict is
    kept on g, as `linalg.inverse` keeps S^-1 on S: the g keygen accepts is
    tested once, and a g built afresh, as a key file's is, again."""
    verdict = getattr(g, "_irreducible", None)
    if verdict is None:
        x = h = Poly.x(g.field)
        verdict = True
        for _ in range(g.degree // 2):
            h = frobenius_mod(h, g, g.field.m)
            if poly_gcd(h + x, g).degree != 0:
                verdict = False
                break
        _set_irreducible(g, verdict)
    return verdict


def check_parameters(m: int, t: int) -> None:
    """The (m, t) a full-field Goppa code supports: 2 <= m <= 16, t >= 2
    and m*t < 2^m; BadParameters otherwise."""
    if t < 2:
        raise BadParameters("correction capability t must be at least 2")
    if m not in range(2, 17):
        raise BadParameters("extension degree m must be in 2..16")
    if m * t >= (1 << m):
        raise BadParameters(f"m*t = {m * t} leaves no code dimension at n = {1 << m}")


def goppa_keygen(m: int, t: int, rng) -> GoppaCode:
    """Random irreducible Goppa code with full-field support.

    Draws degree-t monic polynomials until one is irreducible, shuffles
    the support, and regenerates whenever the GF(2) expansion of the
    parity-check matrix is rank deficient.
    """
    check_parameters(m, t)
    field = GF2m(m)
    while True:
        g = _random_monic_poly(field, t, rng)
        # tested before the shuffle, so that a reducible g uses up no seeded
        # shuffle; GoppaCode reads the verdict this test leaves on g
        if not _is_irreducible(g):
            continue
        support = list(field.elements())
        rng.shuffle(support)
        code = GoppaCode(g, support)
        if rank(code.h) == code.n_minus_k:
            return code


def _locator(u: Poly, v: Poly) -> Poly:
    """Patterson's error locator sigma = u^2 + x * v^2, by squaring
    coefficients: in characteristic 2 a square keeps no cross terms, so
    sigma_(2i) = u_i^2 and sigma_(2i+1) = v_i^2."""
    exp, log = u.field._exp, u.field._log
    sigma = [0] * (2 * max(len(u.coeffs), len(v.coeffs)))
    sigma[0 : 2 * len(u.coeffs) : 2] = [exp[2 * log[c]] if c else 0 for c in u.coeffs]
    sigma[1 : 2 * len(v.coeffs) : 2] = [exp[2 * log[c]] if c else 0 for c in v.coeffs]
    return _poly(u.field, sigma)


def patterson_decode(code: GoppaCode, s: BitVector) -> BitVector | None:
    """Error vector of weight <= t with the given syndrome, or None.

    None is a signal, not an error: it is what drives the retry loop in
    counter-based signing.  A successful result always satisfies both the
    weight bound and H * e = s (re-checked before returning, so a syndrome
    without a low-weight preimage can never be reported as decodable).

    There is one path for every locator sigma: its roots on the support are
    read off the bit-sliced H (`GoppaCode.root_mask`), and sigma decodes iff
    it has deg sigma of them.  The root mask is then the error vector.
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
    # a single error at the zero element gives T = x, so tau = 0, (u, v) =
    # (0, 1) and sigma = x
    tau = poly_sqrt_mod_g(t_poly + x, g, code._sqrt_x)
    u, v = partial_euclid(g, tau, t // 2)
    locator = _locator(u, v)
    mask = code.root_mask(locator)
    if mask.bit_count() != locator.degree:
        return None
    e = BitVector(code.n, mask)
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


def check_census_size(r: int) -> None:
    """CensusInfeasible when 2^r syndromes, r = n - k, are too many to sweep."""
    if r > CENSUS_LIMIT:
        raise CensusInfeasible(f"2^{r} syndromes is past the exhaustive limit")


def decodable_census(code: GoppaCode) -> CensusReport:
    """Run the decoder over every syndrome and count the successes.

    The closed form sum_{i<=t} C(n, i) counts weight-<= t balls; the two
    numbers agree exactly when the minimum distance is >= 2t+1 and the
    decoder is sound.  Disagreement is reported, never papered over.
    """
    r = code.n_minus_k
    check_census_size(r)
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
