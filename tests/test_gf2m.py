import functools
import random

import pytest

from cfslab.errors import InversionOfZero, NotInvertible
from cfslab.gf2m import (
    GF2m,
    Poly,
    frobenius_mod,
    partial_euclid,
    poly_gcd,
    poly_mod_inv,
    poly_sqrt_mod_g,
    sliced_inv,
    sliced_mul,
    sliced_square,
    sqrt_x_mod,
)
from cfslab.goppa import GoppaCode
from cfslab.linalg import BitVector, transpose_bits


F16 = GF2m(4)


def random_poly(field, max_deg, rng):
    return Poly(field, [rng.getrandbits(field.m) for _ in range(max_deg + 1)])


def test_multiplicative_identity():
    for a in F16.elements():
        assert F16.mul(a, 1) == a


def test_reduction_polynomial_anchor():
    # alpha^3 * alpha = alpha^4 = alpha + 1 under x^4 + x + 1
    assert F16.mul(0x8, 0x2) == 0x3


def test_inverse_by_exhaustive_search():
    # independent oracle: scan for the partner product equal to 1
    for a in range(1, 16):
        partner = next(b for b in range(1, 16) if F16.mul(a, b) == 1)
        assert F16.inv(a) == partner
        assert F16.mul(a, F16.inv(a)) == 1
    assert F16.inv(0x2) == 0x9
    assert F16.inv(1) == 1


def test_inverse_is_involution():
    for a in range(1, 16):
        assert F16.inv(F16.inv(a)) == a


def test_inversion_of_zero_rejected():
    with pytest.raises(InversionOfZero):
        F16.inv(0)


def test_element_range_checked():
    with pytest.raises(ValueError):
        F16.mul(16, 1)
    with pytest.raises(ValueError):
        F16.inv(-1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_multiplicative_group_cyclic(m):
    field = GF2m(m)
    order = (1 << m) - 1
    for a in range(1, 1 << m):
        power = 1
        for _ in range(order):
            power = field.mul(power, a)
        assert power == 1
    # x generates the whole group under the pinned primitive polynomials
    seen = set()
    power = 1
    for _ in range(order):
        seen.add(power)
        power = field.mul(power, 2)
    assert len(seen) == order


@pytest.mark.parametrize("m", range(2, 17))
def test_squaring_is_an_automorphism(m):
    field = GF2m(m)
    # every pair up to m=6, a seeded sample of pairs beyond
    rng = random.Random(m)
    if m <= 6:
        pairs = [(a, b) for a in field.elements() for b in field.elements()]
    else:
        pairs = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(4096)]
    for a, b in pairs:
        assert field.mul(a ^ b, a ^ b) == field.mul(a, a) ^ field.mul(b, b)
    # the square-root table poly_sqrt_mod_g reads inverts squaring
    for a in field.elements():
        assert field._sqrt[field.mul(a, a)] == a


@pytest.mark.parametrize("m", [2, 5, 10])
def test_fields_of_one_degree_share_their_tables(m):
    a, b = GF2m(m), GF2m(m)
    assert a._exp is b._exp and a._log is b._log and a._sqrt is b._sqrt
    assert isinstance(a._exp, tuple)  # shared, so immutable
    rng = random.Random(m)
    for _ in range(500):
        x, y = rng.randrange(a.order), rng.randrange(1, a.order)
        assert a.mul(x, y) == b.mul(x, y)
        assert a.inv(y) == b.inv(y)


def test_addition_is_xor_self_cancelling():
    for a in F16.elements():
        assert a ^ a == 0


def test_poly_constructor_checks_coefficients():
    for bad in ([16], [-1], [1, 16, 1], [3, -1]):
        with pytest.raises(ValueError):
            Poly(F16, bad)
    assert Poly(F16, [15, 0, 0]).coeffs == (15,)


def test_poly_eval_checks_its_point():
    f = Poly(F16, (1, 1))
    for bad in (16, -1):
        with pytest.raises(ValueError):
            f.eval(bad)
    with pytest.raises(ValueError):
        Poly.zero(F16).eval(16)


# --- Poly against schoolbook code on the checked GF2m methods --------------


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return _strip((a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(field, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= field.mul(x, y)
    return _strip(out)


def ref_divmod(field, a, b):
    rem, q = list(a), [0] * len(a)
    lead_inv = field.inv(b[-1])
    for i in range(len(rem) - 1, len(b) - 2, -1):
        c = field.mul(rem[i], lead_inv)
        q[i - len(b) + 1] = c
        for j, y in enumerate(b):
            rem[i - len(b) + 1 + j] ^= field.mul(c, y)
    return _strip(q), _strip(rem)


def ref_eval(field, a, x):
    acc = 0
    for c in reversed(a):
        acc = field.mul(acc, x) ^ c
    return acc


@pytest.mark.parametrize("m", range(2, 9))
def test_poly_arithmetic_matches_schoolbook(m):
    field = GF2m(m)
    rng = random.Random(60 + m)
    polys = [Poly.zero(field), Poly.one(field), Poly.x(field)]
    polys += [random_poly(field, rng.randrange(0, 8), rng) for _ in range(40)]
    for a in polys:
        for b in rng.sample(polys, 8) + [Poly.zero(field)]:
            assert (a + b).coeffs == ref_add(a.coeffs, b.coeffs)
            assert (a * b).coeffs == ref_mul(field, a.coeffs, b.coeffs)
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
                continue
            q, r = divmod(a, b)
            assert (q.coeffs, r.coeffs) == ref_divmod(field, a.coeffs, b.coeffs)
            assert (a % b).coeffs == r.coeffs
        c = rng.randrange(field.order)
        assert a.scale(c).coeffs == _strip(field.mul(c, x) for x in a.coeffs)
        assert a.scale(0).is_zero()
        if not a.is_zero():
            lead_inv = field.inv(a.coeffs[-1])
            assert a.monic().coeffs == _strip(field.mul(lead_inv, x) for x in a.coeffs)
        for x in field.elements():
            assert a.eval(x) == ref_eval(field, a.coeffs, x)


def test_poly_scale_checks_its_factor():
    for bad in (16, -1):
        with pytest.raises(ValueError):
            Poly.one(F16).scale(bad)


@pytest.mark.parametrize("m", [2, 4, 5, 8])
def test_frobenius_mod_matches_repeated_squaring(m):
    field = GF2m(m)
    rng = random.Random(70 + m)
    for _ in range(60):
        f = random_poly(field, rng.randrange(0, 7), rng)
        if f.is_zero():
            continue
        # any leading coefficient (non-monic f), deg f from 0 up, and h of
        # degree above deg f so that the first reduction matters
        h = random_poly(field, rng.randrange(0, 2 * f.degree + 3), rng)
        for k in range(5):
            expected = h % f
            for _ in range(k):
                expected = (expected * expected) % f
            assert frobenius_mod(h, f, k) == expected
    # a linear f has its root in the field, so x^(2^m) == x mod f
    x = Poly.x(field)
    lin = Poly(field, (3, 2))
    assert frobenius_mod(x, lin, m) == x % lin
    assert frobenius_mod(x * x * x, lin, m) == (x * x * x) % lin


# --- polynomial ring -------------------------------------------------------


def irreducible_g(field, t, seed):
    from cfslab.goppa import _is_irreducible, _random_monic_poly

    rng = random.Random(seed)
    while True:
        g = _random_monic_poly(field, t, rng)
        if _is_irreducible(g):
            return g


def test_poly_divmod_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        a = random_poly(F16, rng.randrange(0, 8), rng)
        b = random_poly(F16, rng.randrange(0, 5), rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_mod_inv_identity():
    g = irreducible_g(F16, 3, seed=1)
    assert poly_mod_inv(Poly.one(F16), g) == Poly.one(F16)


def test_poly_mod_inv_property():
    rng = random.Random(9)
    g = irreducible_g(F16, 3, seed=2)
    for _ in range(100):
        f = random_poly(F16, 2, rng)
        if f.is_zero():
            continue
        inv = poly_mod_inv(f, g)
        assert (f * inv) % g == Poly.one(F16)
        assert inv.degree < g.degree


def test_poly_mod_inv_rejects_non_coprime():
    f = Poly(F16, (0, 1))  # x
    g = Poly(F16, (0, 0, 1))  # x^2, shares the factor x
    with pytest.raises(NotInvertible):
        poly_mod_inv(f, g)


def test_poly_mod_inv_of_a_multiple_of_g_is_not_invertible():
    g = irreducible_g(F16, 3, seed=1)
    for f in (g, Poly.zero(F16), g * Poly(F16, (5, 1))):
        with pytest.raises(NotInvertible):
            poly_mod_inv(f, g)


SQRT_X_PARAMS = [(3, 2), (4, 3), (5, 3), (6, 4), (8, 5), (10, 4), (10, 6), (12, 8), (16, 9)]


@pytest.mark.parametrize("m,t", SQRT_X_PARAMS)
def test_sqrt_x_mod_matches_frobenius(m, t):
    # one inverse against m*t - 1 squarings, which invert one squaring in
    # the residue field of 2^(m*t) elements
    field = GF2m(m)
    monic = irreducible_g(field, t, seed=m * 100 + t)
    x = Poly.x(field)
    for g in (monic, monic.scale(field.order - 1)):  # and a non-monic multiple
        sx = sqrt_x_mod(g)
        assert sx == frobenius_mod(x, g, m * t - 1)
        assert sx.degree < t
        assert (sx * sx) % g == x % g


def test_poly_sqrt_trivial_cases():
    g = irreducible_g(F16, 3, seed=3)
    sx = sqrt_x_mod(g)
    assert poly_sqrt_mod_g(Poly.zero(F16), g, sx).is_zero()
    assert poly_sqrt_mod_g(Poly.one(F16), g, sx) == Poly.one(F16)


def test_poly_sqrt_round_trip():
    rng = random.Random(17)
    for t, seed in ((2, 4), (3, 5), (5, 6)):
        g = irreducible_g(F16, t, seed=seed)
        sx = sqrt_x_mod(g)
        assert (sx * sx) % g == Poly.x(F16) % g
        for _ in range(50):
            f = random_poly(F16, t - 1, rng)
            root = poly_sqrt_mod_g(f, g, sx)
            assert (root * root) % g == f % g


def test_partial_euclid_contract():
    rng = random.Random(23)
    g = irreducible_g(F16, 5, seed=7)
    for k in range(101):
        b = random_poly(F16, 4, rng) if k else Poly.zero(F16)
        stop = rng.randrange(0, g.degree)
        u, v = partial_euclid(g, b, stop)
        assert not v.is_zero()
        assert u.degree <= stop
        assert v.degree <= g.degree - stop - 1
        assert (u + v * b) % g == Poly.zero(F16)


def test_partial_euclid_zero_steps():
    g = irreducible_g(F16, 4, seed=8)
    b = random_poly(F16, 3, random.Random(31))
    u, v = partial_euclid(g, b, g.degree - 1)
    assert u == b % g
    assert v == Poly.one(F16)


def test_partial_euclid_of_zero_is_zero_one():
    # u = v*b mod a holds with u = 0, v = 1; the decoder's tau = 0 (a single
    # error at the zero element) gives the locator u^2 + x*v^2 = x
    for t in (2, 3, 5):
        g = irreducible_g(F16, t, seed=9 + t)
        for stop in range(g.degree):
            assert partial_euclid(g, Poly.zero(F16), stop) == (Poly.zero(F16), Poly.one(F16))


def test_poly_gcd_normalizes_monic():
    a = Poly(F16, (3, 1)) * Poly(F16, (5, 7))
    b = Poly(F16, (3, 1)) * Poly(F16, (1, 0, 2))
    d = poly_gcd(a, b)
    assert d.coeffs[-1] == 1
    assert a % d == Poly.zero(F16)
    assert b % d == Poly.zero(F16)


# --- roots over a point set, read off a Goppa code's bit-sliced rows -------
# (`GoppaCode.root_mask`, the decoder's root search), against brute force


def brute_roots(f, points):
    return [i for i, p in enumerate(points) if f.eval(p) == 0]


def product_of_linears(field, roots):
    f = Poly.one(field)
    for a in roots:
        f = f * Poly(field, (a, 1))
    return f


@functools.lru_cache(maxsize=None)
def code_over(m, points, t):
    # an irreducible g of degree >= 2 has no root anywhere in the field
    field = GF2m(m)
    return GoppaCode(irreducible_g(field, t, seed=60 + t), points)


def mask_roots(f, points):
    """Positions i with f(points[i]) == 0, read off the root masks of two
    codes over the points: t = 5, and t = max(deg f, 2), where a degree-t f
    goes through the x^t / g fold."""
    found = []
    for t in (5, max(f.degree, 2)):
        code = code_over(f.field.m, tuple(points), t)
        found.append(list(BitVector(code.n, code.root_mask(f)).support()))
    assert found[0] == found[1]
    return found[0]


def check_against_brute_force(f, points):
    """The root mask agrees with Poly.eval over the points, and holds deg f
    roots only when f has deg f distinct roots in the whole field."""
    found = mask_roots(f, points)
    assert found == brute_roots(f, points)
    if len(brute_roots(f, list(f.field.elements()))) != f.degree:
        assert len(found) != f.degree
    return found


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_poly_roots_random_polys_match_brute_force(m):
    field = GF2m(m)
    rng = random.Random(40 + m)
    points = list(field.elements())
    rng.shuffle(points)
    for _ in range(300):
        check_against_brute_force(random_poly(field, rng.randrange(0, 6), rng), points)


@pytest.mark.parametrize("m", [3, 4, 6, 8, 10])
def test_poly_roots_split_locators_match_brute_force(m):
    field = GF2m(m)
    rng = random.Random(50 + m)
    points = list(field.elements())
    rng.shuffle(points)
    for _ in range(100):
        roots = rng.sample(points, rng.randrange(1, 6))
        f = product_of_linears(field, roots).scale(rng.randrange(1, field.order))
        found = check_against_brute_force(f, points)
        assert sorted(points[i] for i in found) == sorted(roots)


def test_poly_roots_distinct_linear_factors():
    f = product_of_linears(F16, (0, 3, 9, 14))
    points = list(range(16))
    assert mask_roots(f, points) == [0, 3, 9, 14]
    assert mask_roots(f, points[::-1]) == [1, 6, 12, 15]  # positions, not values


def test_poly_roots_repeated_root_does_not_split():
    f = product_of_linears(F16, (5, 5, 7))
    assert mask_roots(f, range(16)) == brute_roots(f, range(16)) == [5, 7]


def test_poly_roots_irreducible_quadratic_does_not_split():
    f = irreducible_g(F16, 2, seed=11)
    assert mask_roots(f, range(16)) == brute_roots(f, range(16)) == []


def test_poly_roots_degree_zero_and_one():
    assert mask_roots(Poly(F16, (9,)), range(16)) == []
    assert mask_roots(Poly.zero(F16), range(16)) == list(range(16))
    for a in range(16):
        f = Poly(F16, (a, 1)).scale(7)
        assert mask_roots(f, range(16)) == [a]
        assert mask_roots(f, [b for b in range(16) if b != a]) == []


def test_poly_roots_root_outside_points():
    # splits in the field, but one root is not among the points
    f = product_of_linears(F16, (2, 4, 8))
    points = [a for a in range(16) if a != 4]
    assert mask_roots(f, points) == brute_roots(f, points) == [2, 7]


# --- bit-sliced arithmetic against the exp/log tables --------------------------
# transpose_bits(values, m) gives the m planes of the values, and
# transpose_bits(planes, n) the n values back


@pytest.mark.parametrize("m", range(2, 9))
def test_sliced_mul_matches_table_mul_on_every_pair(m):
    field = GF2m(m)
    pairs = [(a, b) for a in field.elements() for b in field.elements()]
    a = transpose_bits([a for a, _ in pairs], m)
    b = transpose_bits([b for _, b in pairs], m)
    assert transpose_bits(sliced_mul(a, b, m), len(pairs)) == [field.mul(x, y) for x, y in pairs]


@pytest.mark.parametrize("m", range(2, 9))
def test_sliced_square_and_inverse_match_the_tables_on_every_element(m):
    field = GF2m(m)
    elements = list(field.elements())
    a = transpose_bits(elements, m)
    assert transpose_bits(sliced_square(a, m), field.order) == [field.mul(x, x) for x in elements]
    # zero has no inverse; a^(2^m - 2) leaves it 0
    inverses = [0] + [field.inv(x) for x in elements[1:]]
    assert transpose_bits(sliced_inv(a, m), field.order) == inverses


@pytest.mark.parametrize("m", [9, 12, 16])
def test_sliced_arithmetic_on_random_elements(m):
    field = GF2m(m)
    rng = random.Random(m)
    xs = [rng.randrange(field.order) for _ in range(300)] + [0, 1, field.order - 1]
    ys = [rng.randrange(field.order) for _ in xs]
    a, b = transpose_bits(xs, m), transpose_bits(ys, m)
    assert transpose_bits(sliced_mul(a, b, m), len(xs)) == [field.mul(x, y) for x, y in zip(xs, ys)]
    assert transpose_bits(sliced_inv(a, m), len(xs)) == [field.inv(x) if x else 0 for x in xs]
