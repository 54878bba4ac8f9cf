"""The reference kernel that the bounded times are scaled by.

The benchmark runs on shared machines whose speed swings by up to 1.5x
within seconds, and whose share of slow time differs from run to run.  Raw
per-call times then spread by 0.2-0.3 (quartile distance over median) across
runs of the same code.  So this fixed kernel is timed just before every
timed call and around every set-up, and the bounded metrics give each time
at reference speed: the raw time times REFERENCE_S over the mean of the
kernel times just before and just after it.  A swing in machine speed slows
both alike and largely cancels.

The kernel does what cfslab's hot loops do (table-driven GF(2^10)
multiplies behind range checks, big-integer AND and parity, one SHA-256)
but shares no code with the package, so a change to cfslab cannot change it.
It takes about 0.15 ms.
"""

import hashlib
import random
from time import perf_counter

# the kernel's time on the machine in NOTES.md in a fast spell
REFERENCE_S = 1e-4

_ORDER = 1 << 10
_EXP = [0] * (2 * _ORDER)
_LOG = [0] * _ORDER
_v = 1
for _i in range(_ORDER - 1):
    _EXP[_i], _LOG[_v] = _v, _i
    _v <<= 1
    if _v & _ORDER:
        _v ^= 0b10000001001
for _i in range(_ORDER - 1, 2 * _ORDER):
    _EXP[_i] = _EXP[_i - (_ORDER - 1)]

_rng = random.Random(0)
_ROWS = [_rng.getrandbits(_ORDER) for _ in range(40)]
_WORD = sum(1 << _rng.randrange(_ORDER) for _ in range(4))


class _Field:
    def check(self, a):
        if not 0 <= a < _ORDER:
            raise ValueError(a)

    def mul(self, a, b):
        self.check(a)
        self.check(b)
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]


_FIELD = _Field()


def _kernel() -> int:
    mul = _FIELD.mul
    acc = 0
    for x in range(48):
        v = 0
        for c in (3, 77, 501, 1000, 9):
            v = mul(v, x) ^ c
        acc ^= v
    for row in _ROWS:
        acc ^= bin(row & _WORD).count("1") & 1
    hashlib.sha256(acc.to_bytes(4, "big")).digest()
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start
