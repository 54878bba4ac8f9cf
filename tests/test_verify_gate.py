"""`Scheme.verify`, the one gate and the whole verifier, against the old
separate gate and BitVector comparison (`oracles.gated_verify`), and the
single-call `digest_bits` against SHA-256 in counter mode at its boundary."""

import random
from types import SimpleNamespace

import pytest

from cfslab import codehash, schemes
from cfslab.codehash import digest_bits
from cfslab.linalg import BitVector
from cfslab.schemes import SCHEMES, counter_width

from oracles import counter_mode_digest, gated_verify, kernel_basis

# (scheme, m, t, header fields): n-k = 15, and n-k = 65 or 70 > 64, whose
# counter field is 9 bytes
KEYS = [
    ("cfs", 5, 3, {}),
    ("cfs", 13, 5, {}),
    ("mcfs", 5, 3, {}),
    ("mcfs", 13, 5, {}),
    ("mcfsc", 5, 3, {"w": 2}),
    ("mcfsc", 7, 10, {"w": 2}),
    ("tilde", 5, 3, {"w": 2}),
    ("tilde", 7, 10, {"w": 2}),
]
MSG = b"one gate"


@pytest.fixture(scope="module", params=KEYS, ids=lambda k: f"{k[0]}-m{k[1]}t{k[2]}")
def signed(request):
    name, m, t, fields = request.param
    scheme, rng = SCHEMES[name], random.Random(f"gate/{name}/{m}")
    sk, pk = scheme.keygen(m, t, rng, **fields)
    return scheme, scheme.sign(MSG, sk, rng), pk, rng


def candidates(scheme, sig, pk, rng):
    """(label, signature value) for every case the gate decides."""
    n, t, r = pk.h_pub.cols, pk.t, pk.h_pub.rows
    e, counter = sig.error, scheme.counter
    c = {} if counter is None else {counter: getattr(sig, counter)}
    spots = rng.sample(range(n), t + 1)
    weight_t = BitVector.from_indices(n, spots[:t])
    spare = next(i for i in spots if not e[i])
    # same syndrome as e, weight above t: only the weight check refuses it
    heavy = next(e ^ w for w in kernel_basis(pk.h_pub) if (e ^ w).weight > t)
    out = [
        ("honest", sig),
        ("no error", SimpleNamespace(**c)),
        ("error None", SimpleNamespace(error=None, **c)),
        ("error int", SimpleNamespace(error=e.to_int(), **c)),
        ("error bytes", scheme.signature(error=e.to_bytes(), **c)),
        ("error hex", scheme.signature(error=e.to_hex(), **c)),
        ("short error", scheme.signature(error=BitVector(n - 1, e.to_int() >> 1), **c)),
        ("long error", scheme.signature(error=BitVector(n + 1, e.to_int()), **c)),
        ("weight t", scheme.signature(error=weight_t, **c)),
        ("weight t+1", scheme.signature(error=BitVector.from_indices(n, spots), **c)),
        ("honest error minus a bit", scheme.signature(error=e.flip(e.support()[0]), **c)),
        ("honest error plus a bit", scheme.signature(error=e.flip(spare), **c)),
        ("honest error plus a codeword", scheme.signature(error=heavy, **c)),
    ]
    if counter is None:
        # tilde has no counter: a stray attribute changes nothing
        out.append(("stray counter", SimpleNamespace(error=e, counter=-1)))
        return out
    honest, top = getattr(sig, counter), (1 << 8 * counter_width(r)) - 1
    values = [-1, 0, 1, top, top + 1, honest + 1, float(honest), 0.0, True, False, None, "0",
              str(honest)]
    out += [(f"{counter}={v!r}", scheme.signature(error=e, **{counter: v})) for v in values]
    out.append((f"no {counter}", SimpleNamespace(error=e)))
    return out


def test_one_gate_gives_the_old_verdicts(signed):
    scheme, sig, pk, rng = signed
    public = getattr(schemes, f"{scheme.name}_verify")
    verdicts = {}
    for label, candidate in candidates(scheme, sig, pk, rng):
        verdict = scheme.verify(MSG, candidate, pk)
        assert verdict is gated_verify(scheme, MSG, candidate, pk), label
        assert public(MSG, candidate, pk) is verdict, label
        verdicts[label] = verdict
    assert verdicts["honest"] is True
    assert verdicts["weight t+1"] is verdicts["honest error plus a codeword"] is False
    if scheme.counter is not None:
        assert verdicts[f"{scheme.counter}={float(getattr(sig, scheme.counter))!r}"] is False


# around one SHA-256 block (256 bits) and two
BOUNDARY = (1, 7, 8, 255, 256, 257, 512, 513)


@pytest.mark.parametrize("nbits", BOUNDARY)
def test_digest_bits_equals_counter_mode(nbits):
    # a single call stretched to 257 bits would read bit 256 as 0 every time
    for i in range(32):
        data = b"boundary %d" % i
        got = digest_bits(data, nbits)
        assert got.n == nbits and got == counter_mode_digest(data, nbits)


@pytest.mark.parametrize("nbits", BOUNDARY)
def test_digest_bits_takes_one_call_exactly_up_to_256_bits(monkeypatch, nbits):
    # the single-call path wraps its masked int unchecked; the counter-mode
    # path builds through BitVector.from_bytes
    wrapped = []
    real = codehash._bitvector
    monkeypatch.setattr(codehash, "_bitvector", lambda n, bits: wrapped.append(n) or real(n, bits))
    digest_bits(b"x", nbits)
    assert wrapped == ([nbits] if nbits <= 256 else [])
