"""Key and signature files.

Line-oriented text, versioned header, one `name value...` entry per line.
This module owns the matrix format: a `name rows cols` line followed by
one row per line in `BitVector`'s hex codec.  Everything is big-endian and
byte-aligned, so reruns with the same seed reproduce files byte for byte.

Secret keys store the Goppa polynomial and support and rebuild the parity
check matrix and decoder tables on load; derived data (inverses, the
public matrix of mcfsc) is recomputed rather than stored.  Which header
fields a key file carries, whether it stores a scrambler and which counter
field a signature has are read from the scheme's record in
`schemes.SCHEMES`, and both loaders rebuild keys through that record.
This module only parses: `GoppaCode`, `SecretKey` (which builds a secret
key's public key from its parts) and the public-key types decide what a
valid key is, and a loader reports their BadParameters as KeyFormatError,
its own being for a line it cannot parse or does not read, or a stored m
or t at odds with the key it built.
Each saver refuses, with BadParameters and no file, a scheme name whose
record stores another kind of key or signature than the one it is given.
The secret-key loader also runs `check_parameters` on the stored m and t
before it builds anything, so a hostile t is refused before the
irreducibility test, which costs ~t^3, can run on its g.
"""

from __future__ import annotations

from contextlib import contextmanager

from .codehash import registered
from .errors import BadParameters, CfsLabError, KeyFormatError
from .gf2m import GF2m, Poly
from .goppa import GoppaCode, check_parameters
from .linalg import BitMatrix, BitVector, Permutation
from .schemes import SCHEMES, Scheme

KEY_MAGIC = "cfslab-key v1"
SIG_MAGIC = "cfslab-sig v1"

# file label of a key attribute in the header, where the two differ
_LABELS = {"encoder_id": "encoder"}
_PARSERS = {"w": int}


def _fmt_field_elems(values: tuple[int, ...]) -> str:
    return " ".join(["%x"] * len(values)) % values


def _parse_field_elems(tokens) -> list[int]:
    return [int(tok, 16) for tok in tokens]


@contextmanager
def _parsing(path, magic: str):
    """A reader of the file, which must be read to its last line; every way
    a hostile file fails to parse becomes KeyFormatError (ValueError covers
    bad integers, bad hex and non-ASCII bytes)."""
    try:
        reader = _Reader(path, magic)
        yield reader
        reader.end()
    except KeyFormatError:
        raise
    except (CfsLabError, ValueError) as exc:
        raise KeyFormatError(f"malformed file {path}: {exc}") from exc


class _Reader:
    def __init__(self, path, magic: str):
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii")
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        if not self.lines or self.lines[0] != magic:
            raise KeyFormatError(f"missing {magic!r} header")
        self.pos = 1

    def next(self, name: str) -> list[str]:
        if self.pos >= len(self.lines):
            raise KeyFormatError(f"unexpected end of file, wanted {name!r}")
        toks = self.lines[self.pos].split()
        if toks[0] != name:
            raise KeyFormatError(f"expected {name!r}, found {toks[0]!r}")
        self.pos += 1
        return toks[1:]

    def end(self) -> None:
        if self.pos < len(self.lines):
            extra = self.lines[self.pos].split()[0]
            raise KeyFormatError(f"unexpected {extra!r} after the last field")

    def value(self, name: str, parse=str):
        toks = self.next(name)
        if len(toks) != 1:
            raise KeyFormatError(f"{name!r} takes one value, found {len(toks)}")
        return parse(toks[0])

    def matrix(self, name: str) -> BitMatrix:
        toks = self.next(name)
        if len(toks) != 2:
            raise KeyFormatError(f"bad matrix header for {name!r}")
        rows, cols = int(toks[0]), int(toks[1])
        if not 0 <= rows <= len(self.lines) - self.pos:
            raise KeyFormatError(f"truncated matrix {name!r}")
        body = self.lines[self.pos : self.pos + rows]
        self.pos += rows
        return BitMatrix(rows, cols, [BitVector.from_hex(ln, cols).to_int() for ln in body])

    def key_header(self, kind: str) -> tuple[str, Scheme, int, int, dict]:
        """scheme, kind, m, t and the scheme's own header fields."""
        name = self.value("scheme")
        scheme = registered(SCHEMES, name, "scheme")
        found = self.value("kind")
        if found != kind:
            raise KeyFormatError(f"expected a {kind} key file, found kind {found!r}")
        m, t = self.value("m", int), self.value("t", int)
        fields = {f: self.value(_LABELS.get(f, f), _PARSERS.get(f, str)) for f in scheme.header}
        return name, scheme, m, t, fields


def _matrix_lines(name: str, mat: BitMatrix) -> list[str]:
    return [f"{name} {mat.rows} {mat.cols}"] + [mat.row(i).to_hex() for i in range(mat.rows)]


def _key_lines(key, scheme: str, kind: str, m: int, t: int) -> list[str]:
    header = [f"{_LABELS.get(f, f)} {getattr(key, f)}" for f in SCHEMES[scheme].header]
    return [KEY_MAGIC, f"scheme {scheme}", f"kind {kind}", f"m {m}", f"t {t}", *header]


def _write(path, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_secret_key(sk, scheme: str, path: str) -> None:
    """BadParameters, and no file, unless the named scheme stores the same
    key as sk.scheme: scrambled, header and public_key_type (cfs as mcfs)."""
    record, own = registered(SCHEMES, scheme, "scheme"), sk.scheme
    if (record.scrambled, record.header, record.public_key_type) != (
        own.scrambled, own.header, own.public_key_type
    ):
        raise BadParameters(f"a {own.name} key cannot be saved as a {scheme} key")
    code = sk.code
    lines = _key_lines(sk.pk, scheme, "secret", code.m, code.t)
    lines += [f"g {_fmt_field_elems(code.g.coeffs)}", f"support {_fmt_field_elems(code.support)}"]
    if record.scrambled:
        lines += _matrix_lines("S", sk.scrambler)
    lines.append(f"P {sk.perm.to_text()}")
    _write(path, lines)


def save_public_key(pk, scheme: str, path: str) -> None:
    """BadParameters, and no file, unless pk is the named scheme's
    public_key_type (a cfs key saves as mcfs)."""
    if type(pk) is not registered(SCHEMES, scheme, "scheme").public_key_type:
        raise BadParameters(f"a {type(pk).__name__} cannot be saved as a {scheme} key")
    m = pk.h_pub.rows // pk.t
    _write(path, _key_lines(pk, scheme, "public", m, pk.t) + _matrix_lines("H", pk.h_pub))


def load_secret_key(path: str):
    """Returns (scheme, secret_key)."""
    with _parsing(path, KEY_MAGIC) as r:
        name, scheme, m, t, fields = r.key_header("secret")
        # bounds t before GoppaCode's irreducibility test, which costs ~t^3
        check_parameters(m, t)
        g = Poly(GF2m(m), _parse_field_elems(r.next("g")))
        if g.degree != t:
            raise KeyFormatError("stored t disagrees with the polynomial degree")
        code = GoppaCode(g, _parse_field_elems(r.next("support")))
        if scheme.scrambled:
            fields["scrambler"] = r.matrix("S")
        perm = Permutation(map(int, r.next("P")))
        sk, _ = scheme.from_parts(code=code, perm=perm, **fields)
    return name, sk


def load_public_key(path: str):
    """Returns (scheme, public_key)."""
    with _parsing(path, KEY_MAGIC) as r:
        name, scheme, m, t, fields = r.key_header("public")
        pk = scheme.public_key_type(r.matrix("H"), t, **fields)
        if pk.h_pub.rows != m * t:
            raise KeyFormatError("stored m disagrees with the matrix height")
        return name, pk


def save_signature(sig, scheme: str, path: str) -> None:
    """BadParameters, and no file, unless sig is the named scheme's
    signature type (an mcfs signature saves as mcfsc)."""
    record = registered(SCHEMES, scheme, "scheme")
    if type(sig) is not record.signature:
        raise BadParameters(f"a {type(sig).__name__} cannot be saved as a {scheme} signature")
    lines = [SIG_MAGIC, f"scheme {scheme}"]
    counter = record.counter
    if counter is not None:
        lines.append(f"{counter} {getattr(sig, counter)}")
    _write(path, lines + [f"bits {sig.error.n}", f"error {sig.error.to_hex()}"])


def load_signature(path: str):
    """Returns (scheme, signature)."""
    with _parsing(path, SIG_MAGIC) as r:
        name = r.value("scheme")
        scheme = registered(SCHEMES, name, "scheme")
        counter = {} if scheme.counter is None else {scheme.counter: r.value(scheme.counter, int)}
        n = r.value("bits", int)
        error = BitVector.from_hex(r.value("error"), n)
        return name, scheme.signature(error=error, **counter)
