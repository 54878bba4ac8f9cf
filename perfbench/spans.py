"""In-memory span tracing of cfslab's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
place a caller looks it up: the module namespaces of the package (callers
import most functions by name), module-level dicts that hold the function
(`schemes.GENERIC_HASHES` holds `digest_bits`), and the class attribute for
methods.  `uninstall()` puts the originals back.

A span is (id, parent id, name, start ns, end ns).  Aggregates per name
(calls, total time, self time = total minus the time of child spans) are
kept for every span; the span log itself is capped so that a census does
not fill memory, and is written out only at the end.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# (module, attribute) -> metric prefix; a dotted attribute is a method
SPANNED = {
    ("goppa", "goppa_keygen"): "goppa.goppa_keygen",
    ("goppa", "patterson_decode"): "goppa.patterson_decode",
    ("goppa", "GoppaCode._syndrome_poly"): "goppa.syndrome_poly",
    ("goppa", "decodable_census"): "goppa.decodable_census",
    ("gf2m", "poly_mod_inv"): "gf2m.poly_mod_inv",
    ("gf2m", "poly_sqrt_mod_g"): "gf2m.poly_sqrt_mod_g",
    ("gf2m", "partial_euclid"): "gf2m.partial_euclid",
    ("linalg", "mat_vec"): "linalg.mat_vec",
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "rand_invertible"): "linalg.rand_invertible",
    ("linalg", "Permutation.apply"): "linalg.Permutation.apply",
    ("codehash", "md_hash"): "codehash.md_hash",
    ("codehash", "md_final_state"): "codehash.md_final_state",
    ("codehash", "compress"): "codehash.compress",
    ("codehash", "syndrome_hash"): "codehash.syndrome_hash",
    ("codehash", "digest_bits"): "codehash.digest_bits",
    ("attacks", "forge_mcfsc"): "attacks.forge_mcfsc",
    ("attacks", "forge_tilde"): "attacks.forge_tilde",
    ("keyfiles", "save_secret_key"): "keyfiles.save_secret_key",
    ("keyfiles", "save_public_key"): "keyfiles.save_public_key",
    ("keyfiles", "load_secret_key"): "keyfiles.load_secret_key",
    ("keyfiles", "load_public_key"): "keyfiles.load_public_key",
}
SCHEMES = ("cfs", "mcfs", "mcfsc", "tilde")
SPANNED.update(
    {("schemes", f"{s}_{op}"): f"schemes.{s}_{op}" for s in SCHEMES for op in ("sign", "verify")}
)
# called ~n times per decode: counted, not timed, so the root search stays
# inside patterson_decode's self time
COUNTED = {("gf2m", "Poly.eval"): "gf2m.Poly.eval"}

FORGERS = ("attacks.forge_mcfsc", "attacks.forge_tilde")
SIGNERS = tuple(f"schemes.{s}_sign" for s in SCHEMES)
DECODE = "goppa.patterson_decode"

SPAN_LOG_CAP = 200_000
PACKAGE = "cfslab"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.decodes_under: dict[str, int] = {}  # decode spans below a forger or signer
        self.decodes_ok = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _spanned(self, name, fn):
        stack, spans = self._stack, self.spans
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        calls.setdefault(name, 0)
        total_ns.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        is_decode = name == DECODE

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = self._next_id
            self._next_id += 1
            if is_decode:
                for _, outer, _ in stack:
                    if outer in FORGERS or outer in SIGNERS:
                        self.decodes_under[outer] = self.decodes_under.get(outer, 0) + 1
            frame = [span_id, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if is_decode and result is not None:
                    self.decodes_ok += 1
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total_ns[name] += dur
                self_ns[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(spans) < SPAN_LOG_CAP:
                    spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, where: str, make):
        modname, attr = where
        module = sys.modules[f"{PACKAGE}.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._restore.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            self._restore.append((value, k, original))

    def install(self) -> "Tracer":
        for where, name in SPANNED.items():
            self._patch(where, lambda fn, name=name: self._spanned(name, fn))
        for where, name in COUNTED.items():
            self._patch(where, lambda fn, name=name: self._counted(name, fn))
        return self

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        return dict(self.calls)

    def write(self, path) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                                 "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
