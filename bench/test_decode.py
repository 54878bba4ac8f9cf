"""patterson_decode on syndromes that fail and on syndromes that decode.

Retry signing spends almost all its decoder time on failing syndromes
(about 1 - 1/t! of them); single-decode signing and the census's hits
decode.  Both take one path: the locator's roots come from the bit-sliced
root mask whatever the outcome, and only a locator with deg sigma roots
goes on to the H * e = s re-check.  Errors of weight t give a locator of
degree t, which reads every row of the root table; errors of weight t - 2
(codehash-long signs with w = 4 at t = 6) give one of lower degree.
"""

import itertools
import random

import pytest

from cfslab.goppa import goppa_keygen, patterson_decode
from cfslab.linalg import BitVector, mat_vec

PARAMS = [(5, 3), (10, 4), (10, 6), (12, 8)]
BATCH = 64
# outcome -> error weight below t; None for syndromes that fail
OUTCOMES = {"fail": None, "decode": 0, "decode-t-2": 2}


def _syndromes(m, t, below):
    rng = random.Random(1000 * m + t)
    code = goppa_keygen(m, t, rng)
    r = code.n_minus_k
    out = []
    while len(out) < BATCH:
        if below is not None:
            e = BitVector.from_indices(code.n, rng.sample(range(code.n), t - below))
            out.append((mat_vec(code.h, e), e))
        else:
            s = BitVector(r, rng.getrandbits(r))
            if patterson_decode(code, s) is None:
                out.append((s, None))
    return code, out


@pytest.mark.parametrize("outcome", list(OUTCOMES))
@pytest.mark.parametrize("m,t", PARAMS, ids=[f"m{m}t{t}" for m, t in PARAMS])
def test_patterson_decode(benchmark, m, t, outcome):
    code, cases = _syndromes(m, t, OUTCOMES[outcome])
    benchmark.group = f"patterson_decode m={m},t={t}"
    benchmark.extra_info["syndromes"] = len(cases)
    syndromes = itertools.cycle([s for s, _ in cases])
    benchmark(lambda: patterson_decode(code, next(syndromes)))
    for s, expected in cases:
        assert patterson_decode(code, s) == expected
