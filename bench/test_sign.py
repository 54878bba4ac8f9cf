"""Each scheme's public signer and verifier at the end-to-end benchmark's
parameters.

cfs and mcfs sign 32-byte messages at m=10, t=4: about t! = 24 decodes per
signature, almost all of them failing.  mcfsc and tilde (regular encoder,
stopped chain) sign a 1 KiB message at m=10, t=6, w=4: one decode, with the
code-based hash over the message taking the rest.  All four run through the
one signing loop, `Scheme.sign`.  Each verifier checks honest signatures
of the same messages: for cfs and mcfs that is the gate, one SHA-256 call
and t column XORs; for mcfsc and tilde the code-based hash dominates.

Key assembly is timed too: `Scheme.from_parts` for cfs at m=10, t=4 and
for tilde at m=10, t=6, w=4, on the parts of a seeded keygen.  That is the
`SecretKey` constructor: the check of S, H * P, S * (H * P) and the public
key.

    python -m pytest bench/test_sign.py --benchmark-only
"""

import itertools
import random

import pytest

from cfslab import schemes

BATCH = 32

# scheme -> (keygen, its arguments before the rng, message bytes)
PARAMS = {
    "cfs": (schemes.cfs_keygen, (10, 4), 32),
    "mcfs": (schemes.cfs_keygen, (10, 4), 32),
    "mcfsc": (schemes.mcfsc_keygen, (10, 6, 4), 1024),
    "tilde": (schemes.tilde_keygen, (10, 6, 4), 1024),
}
SIGNERS = {
    "cfs": lambda msg, sk, rng: schemes.cfs_sign(msg, sk),
    "mcfs": lambda msg, sk, rng: schemes.mcfs_sign(msg, sk, rng),
    "mcfsc": lambda msg, sk, rng: schemes.mcfsc_sign(msg, sk, rng),
    "tilde": lambda msg, sk, rng: schemes.tilde_sign(msg, sk),
}


@pytest.mark.parametrize("scheme", PARAMS)
def test_sign(benchmark, scheme):
    keygen, args, size = PARAMS[scheme]
    rng = random.Random(f"sign/{scheme}")
    sk, pk = keygen(*args, rng)
    messages = [rng.randbytes(size) for _ in range(BATCH)]
    benchmark.group = f"{scheme}_sign"
    benchmark.extra_info["message_bytes"] = size
    sign = SIGNERS[scheme]
    cycle = itertools.cycle(messages)
    benchmark(lambda: sign(next(cycle), sk, rng))
    verify = getattr(schemes, f"{scheme}_verify")
    for msg in messages[:4]:
        assert verify(msg, sign(msg, sk, rng), pk)


@pytest.mark.parametrize("scheme", PARAMS)
def test_verify(benchmark, scheme):
    keygen, args, size = PARAMS[scheme]
    rng = random.Random(f"verify/{scheme}")
    sk, pk = keygen(*args, rng)
    sign = SIGNERS[scheme]
    signed = [(msg, sign(msg, sk, rng)) for msg in (rng.randbytes(size) for _ in range(BATCH))]
    benchmark.group = f"{scheme}_verify"
    benchmark.extra_info["message_bytes"] = size
    verify = getattr(schemes, f"{scheme}_verify")
    cycle = itertools.cycle(signed)
    assert benchmark(lambda: verify(*next(cycle), pk))


# scheme -> (its arguments before the rng, header fields)
PARTS = {"cfs": ((10, 4), {}), "tilde": ((10, 6), {"w": 4})}


@pytest.mark.parametrize("scheme", PARTS)
def test_from_parts(benchmark, scheme):
    args, fields = PARTS[scheme]
    record = schemes.SCHEMES[scheme]
    sk, pk = record.keygen(*args, random.Random(f"parts/{scheme}"), **fields)
    benchmark.group = f"{scheme} from_parts"
    _, built = benchmark(record.from_parts, sk.code, sk.perm, sk.scrambler, **fields)
    assert built == pk
