import itertools
import math
import random

import pytest

from cfslab import goppa
from cfslab.errors import BadParameters, CensusInfeasible, DimensionError
from cfslab.gf2m import GF2m, Poly, frobenius_mod, partial_euclid, poly_mod_inv, poly_sqrt_mod_g
from cfslab.goppa import (
    GoppaCode,
    _is_irreducible,
    _locator,
    _random_monic_poly,
    decodable_census,
    goppa_keygen,
    patterson_decode,
)
from cfslab.linalg import BitVector, Permutation, mat_mul, mat_vec, rank
from cfslab.metering import count_operations
from oracles import (
    as_matrix,
    kernel_basis,
    parity_check_rows,
    permute_columns,
    rootless_quadratic,
    syndrome_poly_by_product,
)


@pytest.fixture(scope="module")
def code_t2():
    return goppa_keygen(4, 2, random.Random(101))


@pytest.fixture(scope="module")
def code_t3():
    return goppa_keygen(4, 3, random.Random(102))


def test_keygen_shapes(code_t2, code_t3):
    assert (code_t2.n, code_t2.n_minus_k) == (16, 8)
    assert (code_t3.n, code_t3.n_minus_k) == (16, 12)
    assert code_t2.h.rows == 8 and code_t2.h.cols == 16
    assert rank(code_t2.h) == 8
    assert rank(code_t3.h) == 12


def test_keygen_support_is_whole_field(code_t3):
    assert sorted(code_t3.support) == list(range(16))


def test_keygen_polynomial_is_monic_degree_t(code_t3):
    assert code_t3.g.degree == 3
    assert code_t3.g.coeffs[-1] == 1


def test_parity_check_annihilates_codewords(code_t2, code_t3):
    for code, k in ((code_t2, 8), (code_t3, 4)):
        basis = kernel_basis(code.h)
        assert len(basis) == k
        for u in basis:
            assert mat_vec(code.h, u).is_zero()


def test_keygen_rejects_bad_parameters():
    rng = random.Random(1)
    with pytest.raises(BadParameters):
        goppa_keygen(4, 1, rng)
    with pytest.raises(BadParameters):
        goppa_keygen(4, 4, rng)  # m*t = 16 = 2^m leaves no dimension
    with pytest.raises(BadParameters):
        goppa_keygen(1, 2, rng)


def test_build_rejects_bad_support():
    field = GF2m(4)
    with pytest.raises(BadParameters, match="distinct"):
        GoppaCode(rootless_quadratic(field), [0, 0, 1])  # duplicate support entries
    g = Poly(field, (1, 1, 1))  # x^2 + x + 1 has roots in GF(16): order-3 elements
    root = next(a for a in range(16) if g.eval(a) == 0)
    with pytest.raises(BadParameters, match="not irreducible"):
        GoppaCode(g, [root, 1, 0])


def test_an_accepted_g_is_tested_for_irreducibility_once(monkeypatch):
    code = goppa_keygen(6, 4, random.Random(47))
    calls = []

    def counting(h, f, k):
        calls.append(f)
        return frobenius_mod(h, f, k)

    monkeypatch.setattr(goppa, "frobenius_mod", counting)
    # keygen's verdict stays on its g; an equal g built afresh, as a key
    # file's is, is tested again in full
    assert GoppaCode(code.g, code.support).h == code.h
    assert calls == []
    fresh = Poly(code.field, code.g.coeffs)
    assert fresh == code.g and fresh is not code.g
    assert GoppaCode(fresh, code.support).h == code.h
    assert len(calls) == code.t // 2 and all(f is fresh for f in calls)
    GoppaCode(fresh, code.support)
    assert len(calls) == code.t // 2


@pytest.mark.parametrize("m", [4, 5])
def test_build_rejects_reducible_g(m):
    # q^2 has no root in the field, so only the irreducibility test sees it
    field = GF2m(m)
    q = rootless_quadratic(field)
    with pytest.raises(BadParameters, match="not irreducible"):
        GoppaCode(q * q, field.elements())
    assert GoppaCode(q, field.elements()).t == 2


def test_decode_zero_syndrome(code_t3):
    e = patterson_decode(code_t3, BitVector.zeros(12))
    assert e == BitVector.zeros(16)


def test_decode_every_single_error(code_t2):
    for i in range(16):
        e = BitVector.from_indices(16, [i])
        assert patterson_decode(code_t2, mat_vec(code_t2.h, e)) == e


def test_decode_exhaustive_weight_up_to_t(code_t2, code_t3):
    for code in (code_t2, code_t3):
        for wt in range(code.t + 1):
            for pos in itertools.combinations(range(code.n), wt):
                e = BitVector.from_indices(code.n, pos)
                assert patterson_decode(code, mat_vec(code.h, e)) == e


@pytest.mark.parametrize("m,t", [(4, 2), (4, 3), (5, 2), (5, 3)])
def test_decode_random_round_trips(m, t):
    rng = random.Random(103 + m + t)
    code = goppa_keygen(m, t, rng)
    # the same code under a Goppa polynomial that is not monic (a secret
    # key file can hold one): a scalar multiple of g
    scaled = GoppaCode(code.g.scale(rng.randrange(2, 1 << m)), code.support)
    n = code.n
    for _ in range(1000):
        wt = rng.randrange(0, t + 1)
        e = BitVector.from_indices(n, rng.sample(range(n), wt))
        assert patterson_decode(code, mat_vec(code.h, e)) == e
        assert patterson_decode(scaled, mat_vec(scaled.h, e)) == e


def test_decode_never_returns_overweight(code_t3):
    rng = random.Random(104)
    for _ in range(500):
        s = BitVector(12, rng.getrandbits(12))
        e = patterson_decode(code_t3, s)
        if e is not None:
            assert e.weight <= 3
            assert mat_vec(code_t3.h, e) == s


def test_decode_syndrome_length_checked(code_t3):
    with pytest.raises(DimensionError):
        patterson_decode(code_t3, BitVector.zeros(8))


def test_census_t2_exact(code_t2):
    report = decodable_census(code_t2)
    assert report.decodable == 137
    assert report.total == 256
    assert report.closed_form == 137 == sum(math.comb(16, i) for i in range(3))
    assert report.ratio == pytest.approx(0.53515625)
    assert report.t_factorial_approx == pytest.approx(0.5)


def test_census_t3_exact(code_t3):
    report = decodable_census(code_t3)
    assert report.decodable == report.closed_form == 697
    assert report.total == 4096
    assert report.t_factorial_approx == pytest.approx(1 / 6)


def test_census_rejects_small_t():
    # the constructor refuses a t=1 code, and a constant g, so no census sees one
    field = GF2m(4)
    g = Poly(field, (2, 1))  # x + alpha
    support = [a for a in range(16) if g.eval(a) != 0]
    for low in (g, Poly.one(field)):
        with pytest.raises(BadParameters, match="degree at least 2"):
            GoppaCode(low, support)


def test_census_rejects_infeasible_size():
    code = goppa_keygen(6, 5, random.Random(105))  # n-k = 30 > 24
    with pytest.raises(CensusInfeasible):
        decodable_census(code)


def test_census_record_fields(code_t2):
    d = decodable_census(code_t2).as_dict()
    assert set(d) == {
        "m", "t", "n", "decodable", "total", "ratio", "closed_form", "t_factorial_approx",
    }


# --- the decoder against a brute-force root scan ---------------------------


def reference_locator(code, s):
    """Patterson's error locator for a nonzero syndrome, step by step.
    T(x) = x, a single error at the zero element, is its own case here, so
    the decoder's branch-free path (tau = 0 through the stopped Euclid) is
    checked against an answer that does not take it."""
    x = Poly.x(code.field)
    t_poly = poly_mod_inv(syndrome_poly_by_product(code, s), code.g)
    if t_poly == x:
        return x
    tau = poly_sqrt_mod_g(t_poly + x, code.g, code._sqrt_x)
    u, v = partial_euclid(code.g, tau, code.t // 2)
    return u * u + x * (v * v)


def reference_roots(f, support):
    """Positions i with f(support[i]) == 0, by Poly.eval at every point."""
    return [i for i, xi in enumerate(support) if f.eval(xi) == 0]


def reference_decode(code, s):
    """patterson_decode with the root search done by Poly.eval at every
    support point."""
    if s.is_zero():
        return BitVector.zeros(code.n)
    locator = reference_locator(code, s)
    roots = reference_roots(locator, code.support)
    if len(roots) != locator.degree:
        return None
    e = BitVector.from_indices(code.n, roots)
    if e.weight > code.t or mat_vec(code.h, e) != s:
        return None
    return e


@pytest.mark.parametrize(
    "m,t,count", [(4, 2, 400), (5, 3, 400), (6, 3, 300), (6, 4, 300), (8, 4, 100), (10, 4, 40)]
)
def test_decode_matches_brute_force_root_scan(m, t, count):
    rng = random.Random(1000 + 17 * m + t)
    code = goppa_keygen(m, t, rng)
    r = code.n_minus_k
    decoded = 0
    for k in range(count):
        if k % 2:
            s = BitVector(r, rng.getrandbits(r))
        else:
            e = BitVector.from_indices(code.n, rng.sample(range(code.n), rng.randrange(t + 1)))
            s = mat_vec(code.h, e)
        got = patterson_decode(code, s)
        assert got == reference_decode(code, s)
        decoded += got is not None
        if not s.is_zero():
            locator = reference_locator(code, s)
            mask = BitVector(code.n, code.root_mask(locator))
            assert list(mask.support()) == reference_roots(locator, code.support)
    assert decoded >= count // 2  # every weight-<=t syndrome decodes


def test_decode_support_subset_root_outside_support():
    # A code whose support omits part of the field: a syndrome of an error
    # at an omitted element has a locator that splits in GF(2^m) but has a
    # root outside the support, so the root mask comes up one root short.
    field = GF2m(5)
    g = goppa_keygen(5, 3, random.Random(1100)).g
    elements = list(field.elements())
    random.Random(1101).shuffle(elements)
    subset, omitted = elements[:24], elements[24:]
    full = GoppaCode(g, subset + omitted)
    part = GoppaCode(g, subset)
    assert part.n == 24 and part.n_minus_k == full.n_minus_k
    rng = random.Random(1102)
    for _ in range(100):
        inside = rng.sample(range(24), rng.randrange(0, 3))
        outside = rng.sample(range(24, 32), 1)
        s = mat_vec(full.h, BitVector.from_indices(32, inside + outside))
        locator = reference_locator(part, s)
        assert locator.degree == len(inside) + 1
        assert reference_roots(locator, part.support) == sorted(inside)
        assert BitVector(24, part.root_mask(locator)).support() == tuple(sorted(inside))
        assert patterson_decode(part, s) is None
        assert reference_decode(part, s) is None
    for _ in range(100):
        e = BitVector.from_indices(24, rng.sample(range(24), rng.randrange(0, 4)))
        assert patterson_decode(part, mat_vec(part.h, e)) == e


# --- H by transposes and the bit-sliced root mask, against per-bit code ----

BUILD_PARAMS = [(2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4), (8, 5), (9, 5), (10, 6), (11, 6), (12, 8)]


def irreducible_code(m, t, seed, omit=0):
    """A code over a shuffled field (zero element included) minus `omit`
    support points, and the field elements left out."""
    field = GF2m(m)
    rng = random.Random(seed)
    g = _random_monic_poly(field, t, rng)
    while not _is_irreducible(g):
        g = _random_monic_poly(field, t, rng)
    support = list(field.elements())
    rng.shuffle(support)
    return GoppaCode(g, support[: field.order - omit]), support[field.order - omit :]


def per_bit_parity_check(code):
    """Rows x_i^j / g(x_i) scattered bit by bit with the checked field ops."""
    field, m = code.field, code.m
    rows = [0] * (code.t * m)
    for i, x in enumerate(code.support):
        e = field.inv(code.g.eval(x))
        for j in range(code.t):
            for b in range(m):
                if (e >> b) & 1:
                    rows[j * m + b] |= 1 << i
            e = field.mul(e, x)
    return rows


@pytest.mark.parametrize("m,t", BUILD_PARAMS, ids=[f"m{m}t{t}" for m, t in BUILD_PARAMS])
def test_build_matches_per_bit_reference(m, t):
    for omit in (0, 3):  # the whole field, then a strict subset of it
        code, _ = irreducible_code(m, t, 2000 + 31 * m + t, omit)
        assert code.n == (1 << m) - omit
        assert code.h.rows == m * t and code.h.cols == code.n
        assert code.h._rows == per_bit_parity_check(code)


def test_build_rejects_support_outside_field():
    g = Poly(GF2m(4), (2, 1, 1))
    for bad in (16, -1):
        with pytest.raises(ValueError):
            GoppaCode(g, [1, bad])


@pytest.mark.parametrize("where", [0, 7, 15])
@pytest.mark.parametrize("bad", [16, -1])
def test_build_rejects_an_element_outside_the_field_anywhere(where, bad):
    # the gate checks the least and the greatest element, and an element
    # outside [0, 2^m) is always one of them, wherever it stands
    support = [x for x in range(16) if x != 5]
    support.insert(where, bad)
    with pytest.raises(ValueError, match="is not an element of GF"):
        GoppaCode(rootless_quadratic(GF2m(4)), support)


def test_build_empty_support():
    code = GoppaCode(rootless_quadratic(GF2m(4)), [])
    assert (code.n, code.h.rows, code.h.cols) == (0, 8, 0)
    assert code.root_mask(Poly.zero(GF2m(4))) == 0


@pytest.mark.parametrize("m,t", [(4, 2), (5, 3), (6, 4)])
def test_decode_any_accepted_code_is_sound(m, t):
    # a non-monic g on a strict subset of the field: any syndrome decodes to
    # an e of weight <= t with H*e = s, or to None, and never raises
    rng = random.Random(1200 + m)
    part, _ = irreducible_code(m, t, 1300 + 31 * m + t, omit=3)
    code = GoppaCode(part.g.scale(rng.randrange(2, 1 << m)), part.support)
    decoded = 0
    for _ in range(1000):
        s = BitVector(code.n_minus_k, rng.getrandbits(code.n_minus_k))
        e = patterson_decode(code, s)
        if e is not None:
            assert e.weight <= t and mat_vec(code.h, e) == s
            decoded += 1
    assert decoded


def test_decode_matches_reference_on_every_syndrome():
    # every syndrome of a (4,2) keygen code, and of a (5,3) code with a
    # non-monic g on a strict subset of the field that keeps the zero element
    part, _ = irreducible_code(5, 3, 1401, omit=3)
    assert 0 in part.support
    codes = [goppa_keygen(4, 2, random.Random(1400)), GoppaCode(part.g.scale(5), part.support)]
    for code in codes:
        r = code.n_minus_k
        decoded = 0
        for value in range(1 << r):
            s = BitVector(r, value)
            got = patterson_decode(code, s)
            assert got == reference_decode(code, s)
            decoded += got is not None
        assert decoded == sum(math.comb(code.n, i) for i in range(code.t + 1))


@pytest.mark.parametrize("m,t", [(5, 3), (10, 4), (12, 8)])
def test_decode_single_error_at_zero_element(m, t):
    # T(x) = x there, so tau = 0 and the stopped Euclid hands back (0, 1)
    code, _ = irreducible_code(m, t, 1500 + 31 * m + t)
    x = Poly.x(code.field)
    for g in (code.g, code.g.scale(3)):
        c = GoppaCode(g, code.support)
        e = BitVector.from_indices(c.n, [c.support.index(0)])
        s = mat_vec(c.h, e)
        assert poly_mod_inv(c._syndrome_poly(s), g) == x == reference_locator(c, s)
        assert patterson_decode(c, s) == e == reference_decode(c, s)


def random_poly_of_degree(field, d, rng):
    if d < 0:
        return Poly.zero(field)
    return Poly(field, [rng.getrandbits(field.m) for _ in range(d)] + [rng.randrange(1, field.order)])


@pytest.mark.parametrize("m,t", BUILD_PARAMS, ids=[f"m{m}t{t}" for m, t in BUILD_PARAMS])
def test_root_mask_matches_eval_scan(m, t):
    code, _ = irreducible_code(m, t, 3000 + 31 * m + t)
    part, omitted = irreducible_code(m, t, 3000 + 31 * m + t, omit=2)
    rng = random.Random(3100 + m)
    scaled = GoppaCode(code.g.scale(rng.randrange(2, 1 << m)), code.support)
    reps = 3 if m > 9 else 12
    # every degree from the zero polynomial (-1) and a constant (0) up to t
    for d in range(-1, t + 1):
        for _ in range(reps):
            f = random_poly_of_degree(code.field, d, rng)
            for c in (code, part, scaled):
                found = BitVector(c.n, c.root_mask(f)).support()
                assert list(found) == reference_roots(f, c.support)
    # locators with deg f distinct roots: all found over the whole field,
    # one short when one root is an element the subset support omits
    for d in range(1, t + 1):
        for _ in range(reps):
            roots = rng.sample(part.support, d - 1) + [rng.choice(omitted)]
            f = Poly.one(code.field)
            for a in roots:
                f = f * Poly(code.field, (a, 1))
            f = f.scale(rng.randrange(1, code.field.order))
            assert code.root_mask(f).bit_count() == d
            mask = part.root_mask(f)
            assert mask.bit_count() == d - 1
            assert list(BitVector(part.n, mask).support()) == reference_roots(f, part.support)
    with pytest.raises(ValueError):
        code.root_mask(random_poly_of_degree(code.field, t + 1, rng))


def test_decode_at_m16_t9():
    rng = random.Random(1600)
    code = goppa_keygen(16, 9, rng)
    assert (code.n, code.n_minus_k) == (65536, 144)
    for _ in range(3):
        e = BitVector.from_indices(code.n, rng.sample(range(code.n), 9))
        assert patterson_decode(code, mat_vec(code.h, e)) == e


# --- the syndrome map, the squared locator and the halving plane OR --------

SMALL_MAP_PARAMS = [(3, 2), (4, 2), (4, 3), (5, 3)]
RANDOM_MAP_PARAMS = [(6, 4), (8, 4), (10, 4), (10, 6), (12, 8), (16, 9)]


@pytest.mark.parametrize("m,t", SMALL_MAP_PARAMS, ids=[f"m{m}t{t}" for m, t in SMALL_MAP_PARAMS])
def test_syndrome_map_matches_product_on_every_syndrome(m, t):
    code, _ = irreducible_code(m, t, 5000 + 31 * m + t)
    r = code.n_minus_k
    for value in range(1 << r):
        s = BitVector(r, value)
        assert code._syndrome_poly(s) == syndrome_poly_by_product(code, s)


@pytest.mark.parametrize("m,t", RANDOM_MAP_PARAMS, ids=[f"m{m}t{t}" for m, t in RANDOM_MAP_PARAMS])
def test_syndrome_map_matches_product_on_random_syndromes(m, t):
    # the map depends on g alone, so at m = 16 a 256-element support keeps
    # the build small; then a non-monic g, and a strict subset of the support
    rng = random.Random(5100 + 31 * m + t)
    code, _ = irreducible_code(m, t, 5200 + 31 * m + t, omit=(1 << m) - 256 if m > 12 else 0)
    scaled = GoppaCode(code.g.scale(rng.randrange(2, 1 << m)), code.support)
    part = GoppaCode(code.g, code.support[: code.n // 2])
    r = code.n_minus_k
    # every single bit, so every entry of the map, then random syndromes
    syndromes = [BitVector(r, 1 << i) for i in range(r)]
    syndromes += [BitVector(r, rng.getrandbits(r)) for _ in range(500)]
    for c in (code, scaled, part):
        for s in syndromes:
            assert c._syndrome_poly(s) == syndrome_poly_by_product(c, s)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 10, 16])
def test_locator_by_squaring_matches_products(m):
    field = GF2m(m)
    x = Poly.x(field)
    rng = random.Random(5300 + m)
    # u = 0, v = 0, both, deg u = deg v + 1 (the degree Patterson's t even
    # gives), deg v = deg u, deg v above deg u
    degrees = [(-1, -1), (-1, 0), (-1, 3), (0, -1), (4, -1), (1, 0), (3, 2), (5, 4), (2, 2), (0, 4)]
    for du, dv in degrees:
        for _ in range(20):
            u = random_poly_of_degree(field, du, rng)
            v = random_poly_of_degree(field, dv, rng)
            sigma = _locator(u, v)
            assert sigma == u * u + x * (v * v)
            assert sigma.degree == max(2 * u.degree, 2 * v.degree + 1, -1)
    # zero coefficients inside u and v
    u = Poly(field, (0, 1, 0, 0, field.order - 1))
    v = Poly(field, (1, 0, 0, 1))
    assert _locator(u, v) == u * u + x * (v * v)


@pytest.mark.parametrize("m", range(2, 17))
def test_root_mask_matches_brute_force_at_every_m(m):
    # ceil(log2 m) halvings; an odd plane count keeps its middle plane for
    # the next step (m = 5: 5 -> 3 -> 2 -> 1 planes).  Past m = 9 a
    # 512-element support keeps the brute force small.
    t = min(m, 4)
    n = min(1 << m, 512)
    code, _ = irreducible_code(m, t, 5400 + m, omit=(1 << m) - n)
    assert len(code._halvings) == (m - 1).bit_length()
    rng = random.Random(5500 + m)
    for d in range(-1, t + 1):
        for _ in range(8):
            f = random_poly_of_degree(code.field, d, rng)
            found = BitVector(code.n, code.root_mask(f)).support()
            assert list(found) == reference_roots(f, code.support)
    # locators that split on the support: every root found
    for d in range(1, t + 1):
        for _ in range(8):
            where = rng.sample(range(code.n), d)
            f = Poly(code.field, (rng.randrange(1, code.field.order),))
            for i in where:
                f = f * Poly(code.field, (code.support[i], 1))
            assert BitVector(code.n, code.root_mask(f)).support() == tuple(sorted(where))


def test_decode_ticks_matvecs_only_for_its_recheck():
    # the syndrome polynomial comes from the map, not from a product by H,
    # so a decode that fails before the re-check ticks no matvec at all
    code = goppa_keygen(5, 3, random.Random(5600))
    rng = random.Random(5601)
    r = code.n_minus_k
    failed = 0
    while failed < 20:
        with count_operations() as ops:
            e = patterson_decode(code, BitVector(r, rng.getrandbits(r)))
        if e is None:
            assert ops.as_dict() == {"compressions": 0, "matvecs": 0, "decode_calls": 1}
            failed += 1
    for _ in range(20):
        e = BitVector.from_indices(code.n, rng.sample(range(code.n), rng.randrange(1, 4)))
        s = mat_vec(code.h, e)
        with count_operations() as ops:
            assert patterson_decode(code, s) == e
        assert ops.as_dict() == {"compressions": 0, "matvecs": 1, "decode_calls": 1}


# --- the bit-sliced build against the per-position exp/log build ------------

# every m at t = 2 (at m = 2 a code no keygen draws, n - k = n = 4), and the
# workloads' and the decoder benchmarks' sizes
ORACLE_PARAMS = [(m, 2) for m in range(2, 17)] + [(10, 4), (10, 6), (12, 8), (16, 9)]


@pytest.mark.parametrize("m,t", ORACLE_PARAMS, ids=[f"m{m}t{t}" for m, t in ORACLE_PARAMS])
def test_build_matches_exp_log_oracle(m, t):
    code, _ = irreducible_code(m, t, 4000 + 31 * m + t)
    assert code.h._rows == parity_check_rows(code.g, code.support)


@pytest.mark.parametrize("m,t", [(3, 2), (4, 3), (5, 3), (8, 5), (10, 6)])
def test_build_matches_exp_log_oracle_on_any_code(m, t):
    # a non-monic g, and strict-subset supports with and without the zero
    # element, in the field's order and shuffled
    rng = random.Random(4100 + m)
    code, _ = irreducible_code(m, t, 4200 + 31 * m + t)
    g_scaled = code.g.scale(rng.randrange(2, 1 << m))
    assert g_scaled.coeffs[-1] != 1
    half = 1 << (m - 1)
    with_zero = rng.sample(range(1, 1 << m), half - 1)
    with_zero.insert(rng.randrange(half), 0)
    without_zero = rng.sample(range(1, 1 << m), half)
    supports = [code.support, with_zero, without_zero, sorted(with_zero), [0], [1]]
    for g in (code.g, g_scaled):
        for support in supports:
            assert GoppaCode(g, support).h._rows == parity_check_rows(g, list(support))


# --- H * P on the permuted support, against the column pick and the product --

PERMUTED_PARAMS = [(3, 2), (4, 2), (5, 3), (8, 3), (10, 4), (12, 8)]


@pytest.mark.parametrize("m,t", PERMUTED_PARAMS, ids=[f"m{m}t{t}" for m, t in PERMUTED_PARAMS])
def test_permuted_h_matches_permute_columns(m, t):
    # monic and non-monic g, on the whole field and on a strict subset of it
    # that holds the zero element
    rng = random.Random(4500 + 31 * m + t)
    code, _ = irreducible_code(m, t, 4600 + 31 * m + t)
    g_scaled = code.g.scale(rng.randrange(2, 1 << m))
    subset = [x for x in code.support if x != 0][3:]
    subset.insert(rng.randrange(len(subset) + 1), 0)
    for g in (code.g, g_scaled):
        for support in (code.support, subset):
            part = GoppaCode(g, support)
            for perm in (Permutation.identity(part.n), Permutation.random(part.n, rng)):
                hp = part.permuted_h(perm)
                assert hp == permute_columns(part.h, perm) == mat_mul(part.h, as_matrix(perm))
                assert (hp.rows, hp.cols) == (m * t, part.n)
            for wrong in (part.n - 1, part.n + 1):
                with pytest.raises(DimensionError):
                    part.permuted_h(Permutation.random(wrong, rng))
