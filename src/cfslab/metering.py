"""Operation counters for honest-signer vs attacker cost comparisons.

The hot primitives (compression-function calls, matrix-vector products,
decoder invocations) report to every counter currently in scope.  Scopes
nest; `count_operations` is the only public entry point:

    with count_operations() as cost:
        ...
    print(cost.compressions, cost.matvecs, cost.decode_calls)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass

_active: list["OperationCount"] = []


@dataclass
class OperationCount:
    """Tally of the three metered primitives."""

    compressions: int = 0
    matvecs: int = 0
    decode_calls: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@contextmanager
def count_operations():
    counter = OperationCount()
    _active.append(counter)
    try:
        yield counter
    finally:
        _active.remove(counter)


def tick_compression() -> None:
    for c in _active:
        c.compressions += 1


def tick_matvec() -> None:
    for c in _active:
        c.matvecs += 1


def tick_decode() -> None:
    for c in _active:
        c.decode_calls += 1
