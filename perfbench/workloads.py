"""The benchmark's workloads and the recorder that times and checks them.

Every workload makes its keys and messages from the seed, calls only the
public cfslab API, and looks each function up on its module at call time,
so that the tracer's patches see every call.  A workload is a set-up
(keygen, then save and reload of the key files) and an endless, seeded
stream of items; the first `prefix` items are fingerprinted and their
metering tallies summed, so both repeat exactly for a seed however long the
run.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from time import perf_counter

from cfslab import attacks, goppa, keyfiles, metering, schemes
from cfslab.errors import CfsLabError
from cfslab.linalg import BitVector
from reference import REFERENCE_S, kernel_seconds

COUNT_KEYS = ("compressions", "matvecs", "decode_calls")


class Recorder:
    """Times public calls, tallies metering per call and checks outputs.

    Every timed call is preceded by a timing of the reference kernel, so that
    each sample can also be given at reference speed.

    Metering scopes are never nested: `count_operations` removes its
    counter by value, so an inner scope whose tally equals the outer one's
    removes the outer counter (see NOTES.md).  The forgers open their own
    scope, so their counts are read from `Forgery.cost` instead.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {"sign": [], "verify": [], "forge": [], "census": []}
        self.kernels: list[float] = []  # reference kernel times, one before each timed call
        self._before = {kind: [] for kind in self.samples}  # kernel index before each sample
        self.attempted = 0
        self.failed = 0
        self.in_prefix = True
        self.counts = dict.fromkeys(COUNT_KEYS, 0)  # prefix only
        self.signatures = 0  # prefix only
        self.sign_decodes = 0  # prefix only: decode attempts made while signing
        self.forge_decodes = 0
        self._records: list[str] = []  # prefix only

    def _tally(self, cost) -> None:
        if self.in_prefix:
            for key in COUNT_KEYS:
                self.counts[key] += getattr(cost, key)

    def fail(self) -> None:
        self.failed += 1

    def _sample(self, kind: str, elapsed: float) -> None:
        self.samples[kind].append(elapsed)
        self._before[kind].append(len(self.kernels) - 1)

    def at_reference_speed(self, kind: str) -> list[float]:
        """Each sample scaled by the reference kernels timed just before and
        just after it (see reference.py)."""
        k = self.kernels
        return [x * REFERENCE_S / ((k[i] + k[min(i + 1, len(k) - 1)]) / 2)
                for x, i in zip(self.samples[kind], self._before[kind])]

    def call(self, kind: str, fn, *args):
        """One timed public call in its own metering scope; None on error."""
        self.attempted += 1
        self.kernels.append(kernel_seconds())
        try:
            with metering.count_operations() as cost:
                start = perf_counter()
                out = fn(*args)
                elapsed = perf_counter() - start
        except CfsLabError:
            self.fail()
            return None
        self._sample(kind, elapsed)
        self._tally(cost)
        if kind == "sign" and self.in_prefix:
            self.signatures += 1
            self.sign_decodes += cost.decode_calls
        return out

    def forge(self, fn, *args):
        self.attempted += 1
        self.kernels.append(kernel_seconds())
        try:
            start = perf_counter()
            forgery = fn(*args)
            elapsed = perf_counter() - start
        except CfsLabError:
            self.fail()
            return None
        self._sample("forge", elapsed)
        self._tally(forgery.cost)
        self.forge_decodes += forgery.cost.decode_calls
        if forgery.cost.decode_calls:
            self.fail()
        return forgery

    def verify(self, fn, msg, sig, pk) -> None:
        """A valid signature must verify; timed."""
        if self.call("verify", fn, msg, sig, pk) is False:  # None: call() counted the error
            self.fail()

    def reject(self, fn, msg, sig, pk, position: int) -> None:
        """A one-bit-flipped copy must not verify; untimed."""
        bad = dataclasses.replace(sig, error=sig.error.flip(position % sig.error.n))
        self.attempted += 1
        try:
            with metering.count_operations() as cost:
                accepted = fn(msg, bad, pk)
        except CfsLabError:
            accepted = False
        self._tally(cost)
        if accepted is not False:
            self.fail()

    def record(self, label: str, obj) -> None:
        if not self.in_prefix:
            return
        if dataclasses.is_dataclass(obj):
            fields = []
            for f in dataclasses.fields(obj):
                v = getattr(obj, f.name)
                fields.append(f"{f.name}={v.to_hex() if isinstance(v, BitVector) else v}")
            obj = " ".join(fields)
        self._records.append(f"{label} {obj}")

    def fingerprint(self) -> str:
        return hashlib.sha256("\n".join(self._records).encode()).hexdigest()


def save_and_reload(sk, pk, scheme: str, workdir: str):
    sk_path = os.path.join(workdir, f"{scheme}.sk")
    pk_path = os.path.join(workdir, f"{scheme}.pk")
    keyfiles.save_secret_key(sk, scheme, sk_path)
    keyfiles.save_public_key(pk, scheme, pk_path)
    scheme_sk, sk = keyfiles.load_secret_key(sk_path)
    scheme_pk, pk = keyfiles.load_public_key(pk_path)
    if scheme_sk != scheme or scheme_pk != scheme:
        raise RuntimeError(f"reloaded {scheme} keys name another scheme")
    return sk, pk


class Workload:
    name = ""
    prefix = 0  # items fingerprinted and counted in every run; the traced run's work

    def __init__(self, seed: int):
        self.seed = seed
        self.keys: dict[str, tuple] = {}
        self.messages = random.Random(f"{seed}/messages")
        self.nonces = random.Random(f"{seed}/nonces")
        self.flips = random.Random(f"{seed}/flips")

    def setup(self, workdir: str) -> None:
        """Keygen from the seed, then save and reload; the same work every call."""
        raise NotImplementedError

    def item(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def _keys(self, rng, specs, workdir):
        for scheme, keygen, args in specs:
            self.keys[scheme] = save_and_reload(*keygen(*args, rng), scheme, workdir)

    def _checked(self, rec: Recorder, scheme: str, label: str, msg: bytes, sig) -> None:
        rec.record(f"{scheme} {label}", sig)
        verify = getattr(schemes, f"{scheme}_verify")
        pk = self.keys[scheme][1]
        rec.verify(verify, msg, sig, pk)
        rec.reject(verify, msg, sig, pk, self.flips.getrandbits(32))

    def sign(self, rec: Recorder, scheme: str, msg: bytes) -> None:
        sk = self.keys[scheme][0]
        extra = (self.nonces,) if scheme in ("mcfs", "mcfsc") else ()
        sig = rec.call("sign", getattr(schemes, f"{scheme}_sign"), msg, sk, *extra)
        if sig is not None:
            self._checked(rec, scheme, "signature", msg, sig)

    def forge(self, rec: Recorder, scheme: str, msg: bytes) -> None:
        pk = self.keys[scheme][1]
        extra = (self.nonces,) if scheme == "mcfsc" else ()
        forgery = rec.forge(getattr(attacks, f"forge_{scheme}"), msg, pk, *extra)
        if forgery is not None:
            self._checked(rec, scheme, "forgery", msg, forgery.signature)


class CfsRetry(Workload):
    """cfs and mcfs at m=10, t=4: ~t! decode attempts per signature."""

    name = "cfs-retry"
    prefix = 48

    def setup(self, workdir):
        rng = random.Random(f"{self.seed}/keys")
        self._keys(rng, [(s, schemes.cfs_keygen, (10, 4)) for s in ("cfs", "mcfs")], workdir)

    def item(self, i, rec):
        msg = self.messages.randbytes(32)
        self.sign(rec, "cfs", msg)
        self.sign(rec, "mcfs", msg)


class CensusM5(Workload):
    """Exhaustive census of an m=5, t=3 code, then retry signing with its key."""

    name = "census-m5"
    prefix = 201
    census_every = 1500  # ~as much time signing as in the census, per cycle
    expected = 5489  # sum C(32, i), i <= 3

    def setup(self, workdir):
        rng = random.Random(f"{self.seed}/keys")
        self._keys(rng, [("cfs", schemes.cfs_keygen, (5, 3))], workdir)
        self.keys["mcfs"] = self.keys["cfs"]

    def item(self, i, rec):
        if i % self.census_every == 0:
            report = rec.call("census", goppa.decodable_census, self.keys["cfs"][0].code)
            if report is None:
                return
            rec.record("census", report.as_dict())
            if not report.decodable == report.closed_form == self.expected:
                rec.fail()
            return
        msg = self.messages.randbytes(32)
        self.sign(rec, "cfs", msg)
        self.sign(rec, "mcfs", msg)


class CodehashLong(Workload):
    """mcfsc and tilde (regular encoder, md-stopped) at m=10, t=6, w=4, with
    messages of 32 B to 8 KiB: sign, verify and forge each."""

    name = "codehash-long"
    prefix = 32
    strata = 8  # message length log-uniform in [2^(5+j), 2^(6+j)) for item j mod 8

    def setup(self, workdir):
        rng = random.Random(f"{self.seed}/keys")
        self._keys(
            rng,
            [
                ("mcfsc", schemes.mcfsc_keygen, (10, 6, 4)),
                ("tilde", schemes.tilde_keygen, (10, 6, 4)),
            ],
            workdir,
        )

    def item(self, i, rec):
        j = i % self.strata
        length = min(int(2 ** self.messages.uniform(5 + j, 6 + j)), 8192)
        msg = self.messages.randbytes(length)
        for scheme in ("mcfsc", "tilde"):
            self.sign(rec, scheme, msg)
            self.forge(rec, scheme, msg)


WORKLOADS = {w.name: w for w in (CfsRetry, CensusM5, CodehashLong)}
