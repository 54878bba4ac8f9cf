"""Polynomial arithmetic over GF(2^m) at the sizes Patterson decoding uses,
and the key set-up built on it.

Operands come from the code a seeded keygen draws: g is its Goppa
polynomial, f a random polynomial of degree < t.  The two sizes are the
census workload's m=5,t=3 and the retry signer's m=10 range at t=6.

Set-up is timed whole (`goppa_keygen`, a cfs `save_secret_key` and
`load_secret_key` at m=10,t=4), in its code build alone (`GoppaCode(g,
support)` on a freshly built g, irreducibility test included, at m=10 with
t=4 and t=6, and at m=16,t=9, where the bit-sliced parity-check build and
the root table cover 65536 support positions) and
in the decoder's sqrt(x) mod g (`sqrt_x_mod` at m=10,t=6 and m=16,t=9).
"""

import random

import pytest

from cfslab.gf2m import (
    Poly,
    frobenius_mod,
    partial_euclid,
    poly_mod_inv,
    poly_sqrt_mod_g,
    sqrt_x_mod,
)
from cfslab.goppa import GoppaCode, goppa_keygen
from cfslab.keyfiles import load_secret_key, save_secret_key
from cfslab.schemes import cfs_keygen

PARAMS = [(5, 3), (10, 6)]
IDS = [f"m{m}t{t}" for m, t in PARAMS]


@pytest.fixture(scope="module", params=PARAMS, ids=IDS)
def operands(request):
    m, t = request.param
    rng = random.Random(100 * m + t)
    code = goppa_keygen(m, t, rng)
    while True:
        f = Poly(code.field, [rng.getrandbits(m) for _ in range(t)])
        if f.degree == t - 1:
            return code, f


def test_mul(benchmark, operands):
    code, f = operands
    benchmark.group = f"Poly * m={code.m},t={code.t}"
    assert benchmark(lambda: f * code.g).degree == f.degree + code.t


def test_divmod(benchmark, operands):
    code, f = operands
    prod = f * f * f
    benchmark.group = f"divmod m={code.m},t={code.t}"
    q, r = benchmark(divmod, prod, code.g)
    assert q * code.g + r == prod


def test_poly_mod_inv(benchmark, operands):
    code, f = operands
    benchmark.group = f"poly_mod_inv m={code.m},t={code.t}"
    inv = benchmark(poly_mod_inv, f, code.g)
    assert (inv * f) % code.g == Poly.one(code.field)


def test_poly_sqrt_mod_g(benchmark, operands):
    code, f = operands
    benchmark.group = f"poly_sqrt_mod_g m={code.m},t={code.t}"
    root = benchmark(poly_sqrt_mod_g, f, code.g, code._sqrt_x)
    assert (root * root) % code.g == f


def test_partial_euclid(benchmark, operands):
    code, f = operands
    benchmark.group = f"partial_euclid m={code.m},t={code.t}"
    u, v = benchmark(partial_euclid, code.g, f, code.t // 2)
    assert (u + v * f) % code.g == Poly.zero(code.field)


def test_frobenius_mod(benchmark, operands):
    code, f = operands
    benchmark.group = f"frobenius_mod x^(2^m) m={code.m},t={code.t}"
    x = Poly.x(code.field)
    h = benchmark(frobenius_mod, x, code.g, code.m)
    assert h.degree < code.t


def test_goppa_keygen_10_6(benchmark):
    benchmark.group = "goppa_keygen m=10,t=6"
    code = benchmark(lambda: goppa_keygen(10, 6, random.Random(3)))
    assert code.n_minus_k == 60


@pytest.mark.parametrize("m,t", [(10, 4), (10, 6), (16, 9)], ids=["m10t4", "m10t6", "m16t9"])
def test_goppa_code(benchmark, m, t):
    # a fresh g every round, as a key file gives: keygen's g keeps its
    # irreducibility verdict, and a load tests g again
    code = goppa_keygen(m, t, random.Random(4))
    benchmark.group = f"GoppaCode(g, support) m={m},t={t}"

    def fresh_g():
        return (Poly(code.field, code.g.coeffs), code.support), {}

    built = benchmark.pedantic(GoppaCode, setup=fresh_g, rounds=5 if m > 12 else 30)
    assert built.h == code.h


@pytest.mark.parametrize("m,t", [(10, 6), (16, 9)], ids=["m10t6", "m16t9"])
def test_sqrt_x_mod(benchmark, m, t):
    g = goppa_keygen(m, t, random.Random(4)).g
    benchmark.group = f"sqrt_x_mod m={m},t={t}"
    sx = benchmark(sqrt_x_mod, g)
    assert (sx * sx) % g == Poly.x(g.field)


def test_save_secret_key_10_4(benchmark, tmp_path):
    sk, _ = cfs_keygen(10, 4, random.Random(5))
    path = tmp_path / "cfs.sk"
    benchmark.group = "save_secret_key cfs m=10,t=4"
    benchmark(save_secret_key, sk, "cfs", path)
    assert load_secret_key(path)[1].pk == sk.pk


def test_load_secret_key_10_4(benchmark, tmp_path):
    sk, _ = cfs_keygen(10, 4, random.Random(5))
    path = tmp_path / "cfs.sk"
    save_secret_key(sk, "cfs", path)
    benchmark.group = "load_secret_key cfs m=10,t=4"
    _, loaded = benchmark(load_secret_key, path)
    assert loaded.code.h == sk.code.h and loaded.pk == sk.pk
