import random

import pytest

from cfslab.attacks import forge_mcfsc
from cfslab.cli import run
from cfslab import goppa
from cfslab.errors import BadParameters, DimensionError, KeyFormatError
from cfslab.gf2m import GF2m
from cfslab.goppa import GoppaCode, goppa_keygen
from cfslab.keyfiles import (
    _fmt_field_elems,
    _matrix_lines,
    load_public_key,
    load_secret_key,
    load_signature,
    save_public_key,
    save_secret_key,
    save_signature,
)
from cfslab.linalg import BitMatrix, Permutation, inverse, rand_invertible
from cfslab.schemes import (
    SCHEMES,
    cfs_keygen,
    cfs_sign,
    cfs_verify,
    mcfs_sign,
    mcfs_verify,
    mcfsc_keygen,
    mcfsc_sign,
    mcfsc_verify,
    tilde_keygen,
    tilde_sign,
    tilde_verify,
)

from oracles import rootless_quadratic


def test_cfs_key_round_trip(tmp_path):
    sk, pk = cfs_keygen(4, 3, random.Random(1))
    save_secret_key(sk, "cfs", tmp_path / "sk")
    save_public_key(pk, "cfs", tmp_path / "pk")
    scheme, sk2 = load_secret_key(tmp_path / "sk")
    assert scheme == "cfs"
    assert sk2.code.g == sk.code.g
    assert sk2.code.support == sk.code.support
    assert sk2.scrambler == sk.scrambler and inverse(sk2.scrambler) == inverse(sk.scrambler)
    assert sk2.perm == sk.perm
    scheme, pk2 = load_public_key(tmp_path / "pk")
    assert pk2 == pk
    # a loaded key signs and the loaded public key verifies
    sig = cfs_sign(b"round trip", sk2)
    assert cfs_verify(b"round trip", sig, pk2)


@pytest.mark.parametrize("name", ["mcfsc", "cfs"])
def test_a_key_saved_as_another_kind_is_refused(tmp_path, name):
    # as mcfsc the tilde key's S would be dropped and its pk would change, and
    # its public key would load as an mcfsc key over the scrambled H_pub; as
    # cfs the file would carry a hash id the cfs loader refuses
    sk, pk = tilde_keygen(5, 3, 2, random.Random(1))
    with pytest.raises(BadParameters, match=f"tilde key cannot be saved as a {name} key"):
        save_secret_key(sk, name, tmp_path / "sk")
    with pytest.raises(BadParameters, match=f"TildePublicKey cannot be saved as a {name} key"):
        save_public_key(pk, name, tmp_path / "pk")
    assert not (tmp_path / "sk").exists() and not (tmp_path / "pk").exists()


def test_a_cfs_key_saved_as_mcfs_round_trips(tmp_path):
    # cfs and mcfs store the same key; perfbench saves a cfs_keygen key as mcfs
    sk, pk = cfs_keygen(5, 3, random.Random(1))
    save_secret_key(sk, "mcfs", tmp_path / "sk")
    save_public_key(pk, "mcfs", tmp_path / "pk")
    scheme, sk2 = load_secret_key(tmp_path / "sk")
    assert scheme == "mcfs" and sk2.scheme is SCHEMES["mcfs"] and sk2.pk == pk
    assert load_public_key(tmp_path / "pk") == ("mcfs", pk)
    assert mcfs_verify(b"m", mcfs_sign(b"m", sk2, random.Random(2)), pk)


@pytest.mark.parametrize("keygen, sign, name", [
    (lambda rng: cfs_keygen(4, 3, rng), lambda sk: cfs_sign(b"m", sk), "tilde"),
    (lambda rng: tilde_keygen(4, 3, 2, rng), lambda sk: tilde_sign(b"m", sk), "cfs"),
], ids=["cfs-as-tilde", "tilde-as-cfs"])
def test_a_signature_saved_as_another_scheme_is_refused(tmp_path, keygen, sign, name):
    # as tilde a cfs signature would load back without its counter; as cfs a
    # tilde signature has no counter to write
    sig = sign(keygen(random.Random(6))[0])
    with pytest.raises(BadParameters, match=f"cannot be saved as a {name} signature"):
        save_signature(sig, name, tmp_path / "sig")
    assert not (tmp_path / "sig").exists()


@pytest.mark.parametrize("name", ["mcfs", "mcfsc"])
def test_an_mcfs_signature_saves_as_mcfs_and_as_mcfsc(tmp_path, name):
    # mcfs and mcfsc share the nonce signature
    sig = mcfs_sign(b"m", cfs_keygen(4, 3, random.Random(2))[0], random.Random(3))
    save_signature(sig, name, tmp_path / "sig")
    assert load_signature(tmp_path / "sig") == (name, sig)


def test_a_key_saved_under_an_unknown_name_is_refused(tmp_path):
    sk, _ = cfs_keygen(4, 3, random.Random(1))
    with pytest.raises(BadParameters):
        save_secret_key(sk, "sha256", tmp_path / "sk")
    assert not (tmp_path / "sk").exists()


def test_mcfs_signature_round_trip(tmp_path):
    sk, pk = cfs_keygen(4, 3, random.Random(2))
    sig = mcfs_sign(b"msg", sk, random.Random(3))
    save_signature(sig, "mcfs", tmp_path / "sig")
    scheme, sig2 = load_signature(tmp_path / "sig")
    assert scheme == "mcfs" and sig2 == sig
    assert mcfs_verify(b"msg", sig2, pk)


def test_mcfsc_key_and_signature_round_trip(tmp_path):
    sk, pk = mcfsc_keygen(4, 3, 2, random.Random(4))
    save_secret_key(sk, "mcfsc", tmp_path / "sk")
    save_public_key(pk, "mcfsc", tmp_path / "pk")
    _, sk2 = load_secret_key(tmp_path / "sk")
    _, pk2 = load_public_key(tmp_path / "pk")
    assert pk2.h_pub == pk.h_pub and pk2.w == pk.w
    sig = mcfsc_sign(b"m", sk2, random.Random(5))
    assert mcfsc_verify(b"m", sig, pk2)
    save_signature(sig, "mcfsc", tmp_path / "sig")
    assert load_signature(tmp_path / "sig")[1] == sig


def test_tilde_key_round_trip(tmp_path):
    sk, pk = tilde_keygen(4, 3, 2, random.Random(6), encoder_id="digits", hash_id="sha256")
    save_secret_key(sk, "tilde", tmp_path / "sk")
    save_public_key(pk, "tilde", tmp_path / "pk")
    _, sk2 = load_secret_key(tmp_path / "sk")
    _, pk2 = load_public_key(tmp_path / "pk")
    assert pk2.encoder_id == "digits" and pk2.hash_id == "sha256"
    sig = tilde_sign(b"m", sk2)
    assert tilde_verify(b"m", sig, pk2)
    save_signature(sig, "tilde", tmp_path / "sig")
    assert load_signature(tmp_path / "sig")[1] == sig


def test_cfs_signature_round_trip(tmp_path):
    sk, pk = cfs_keygen(4, 3, random.Random(7))
    sig = cfs_sign(b"counter", sk)
    save_signature(sig, "cfs", tmp_path / "sig")
    scheme, sig2 = load_signature(tmp_path / "sig")
    assert scheme == "cfs" and sig2 == sig


@pytest.mark.parametrize("name", SCHEMES)
def test_keys_from_parts_round_trip(tmp_path, name):
    # S^-1 is derived from S, so a key made from parts and the same key
    # loaded from its file read the same inverse
    scheme, rng = SCHEMES[name], random.Random(13)
    code = goppa_keygen(4, 3, rng)
    s = (rand_invertible(code.n_minus_k, rng),) if scheme.scrambled else ()
    fields = {"w": 2} if "w" in scheme.header else {}
    sk, pk = scheme.from_parts(code, Permutation.random(code.n, rng), *s, **fields)
    save_secret_key(sk, name, tmp_path / "sk")
    save_public_key(pk, name, tmp_path / "pk")
    assert load_public_key(tmp_path / "pk") == (name, pk)
    loaded, sk2 = load_secret_key(tmp_path / "sk")
    assert loaded == name and sk2.pk == pk
    assert (sk2.code.g, sk2.code.support, sk2.perm) == (sk.code.g, sk.code.support, sk.perm)
    assert sk2.scrambler == sk.scrambler
    if scheme.scrambled:
        assert inverse(sk2.scrambler) == inverse(sk.scrambler)


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_key_lines_match_per_element_formatting(n):
    # the field-element and P lines, each formatted by one %, against one
    # f-string per element; 0 and 2^16 - 1 are the shortest and longest hex
    rng = random.Random(n)
    values = tuple([0, (1 << 16) - 1][:n] + [rng.getrandbits(rng.randrange(1, 17)) for _ in range(n - 2)])
    assert _fmt_field_elems(values) == " ".join(f"{v:x}" for v in values)
    perm = Permutation.random(n, rng)
    assert perm.to_text() == " ".join(str(i) for i in perm.mapping)
    assert Permutation.from_text(perm.to_text()) == perm


def test_public_loader_rejects_secret_files(tmp_path):
    sk, pk = cfs_keygen(4, 2, random.Random(8))
    save_secret_key(sk, "cfs", tmp_path / "sk")
    with pytest.raises(KeyFormatError):
        load_public_key(tmp_path / "sk")
    save_public_key(pk, "cfs", tmp_path / "pk")
    with pytest.raises(KeyFormatError):
        load_secret_key(tmp_path / "pk")


def test_wide_nonce_key_and_signature_round_trip(tmp_path):
    # m=7, t=10: n-k = 70, so nonces hash in a 9-byte field
    sk, pk = mcfsc_keygen(7, 10, 2, random.Random(10))
    save_secret_key(sk, "mcfsc", tmp_path / "sk")
    save_public_key(pk, "mcfsc", tmp_path / "pk")
    _, sk2 = load_secret_key(tmp_path / "sk")
    _, pk2 = load_public_key(tmp_path / "pk")
    assert pk2.h_pub == pk.h_pub and sk2.perm == sk.perm
    rng = random.Random(11)
    for sig in (mcfsc_sign(b"wide", sk2, rng), forge_mcfsc(b"wide", pk2, rng).signature):
        save_signature(sig, "mcfsc", tmp_path / "sig")
        _, sig2 = load_signature(tmp_path / "sig")
        assert sig2 == sig
        assert mcfsc_verify(b"wide", sig2, pk2)


def test_reducible_goppa_polynomial_rejected(tmp_path, capsys):
    # g = q^2 with q an irreducible quadratic: no root in GF(2^5), so the
    # code builds, but the decoder needs far more than t! attempts
    sk, _ = cfs_keygen(5, 4, random.Random(4))
    save_secret_key(sk, "cfs", tmp_path / "sk")
    q = rootless_quadratic(GF2m(5))
    g_line = "g " + " ".join(f"{c:x}" for c in (q * q).coeffs)
    lines = (tmp_path / "sk").read_text().splitlines()
    lines = [g_line if ln.startswith("g ") else ln for ln in lines]
    (tmp_path / "sk").write_text("\n".join(lines) + "\n")
    with pytest.raises(KeyFormatError, match="not irreducible"):
        load_secret_key(tmp_path / "sk")
    capsys.readouterr()
    argv = ["sign", "--sk", str(tmp_path / "sk"), "--msg-hex", "00", "--sig", str(tmp_path / "sig")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_oversized_t_refused_before_the_irreducibility_test(tmp_path, monkeypatch):
    # m 4 with a g of degree 800: m*t >= 2^m must be refused from the
    # header, before the ~t^3 irreducibility test could start on g
    sk, _ = cfs_keygen(4, 3, random.Random(5))
    save_secret_key(sk, "cfs", tmp_path / "sk")
    g_line = "g " + " ".join(["1"] * 801)
    lines = (tmp_path / "sk").read_text().splitlines()
    lines = [g_line if ln.startswith("g ") else "t 800" if ln == "t 3" else ln for ln in lines]
    (tmp_path / "sk").write_text("\n".join(lines) + "\n")
    calls = []

    def counting(g):
        calls.append(g.degree)
        raise AssertionError("irreducibility test reached")

    monkeypatch.setattr(goppa, "_is_irreducible", counting)
    with pytest.raises(KeyFormatError, match="leaves no code dimension"):
        load_secret_key(tmp_path / "sk")
    assert calls == []


def _replace(old, new):
    return lambda text: text.replace(old, new, 1)


def _first_value(name, value):
    """Replace the first value on the line that starts with `name`."""

    def mutate(text):
        lines = text.split(b"\n")
        i = next(i for i, ln in enumerate(lines) if ln.startswith(name + b" "))
        toks = lines[i].split(b" ")
        lines[i] = b" ".join([toks[0], value, *toks[2:]])
        return b"\n".join(lines)

    return mutate


def _rest_from(marker, rest):
    """Replace everything from `marker` on with `rest`."""
    return lambda text: text[: text.index(marker)] + rest


def _repeat_last_line(text):
    return text + text.splitlines(keepends=True)[-1]


def _first_row(name, mutate_row):
    """Replace the first row of matrix `name` with mutate_row(row)."""

    def mutate(text):
        lines = text.split(b"\n")
        i = next(i for i, ln in enumerate(lines) if ln.startswith(name + b" ")) + 1
        lines[i] = mutate_row(lines[i])
        return b"\n".join(lines)

    return mutate


def _drop_last_position(text):
    """The support one element short and P a bijection on the 2^m - 1
    positions left: a well-formed code that is not on the whole field."""
    lines = text.split(b"\n")
    for i, ln in enumerate(lines):
        if ln.startswith(b"support "):
            lines[i] = ln.rsplit(b" ", 1)[0]
        elif ln.startswith(b"P "):
            n = len(ln.split()) - 1
            lines[i] = b" ".join(tok for tok in ln.split(b" ") if tok != str(n - 1).encode())
    return b"\n".join(lines)


# (file kind, scheme, mutation of the file's bytes)
MALFORMED = [
    ("pk", "cfs", lambda text: b"not a key file\n"),
    ("pk", "cfs", lambda text: b"\n".join(text.splitlines()[:-2]) + b"\n"),  # truncated
    ("sig", "cfs", lambda text: b"not a key file\n"),
    ("pk", "cfs", _replace(b"\nm 4", b"\nm x")),
    ("sk", "cfs", _replace(b"\nm 4", b"\nm x")),
    ("pk", "cfs", _replace(b"scheme cfs", b"scheme")),
    ("sig", "cfs", _replace(b"scheme cfs", b"scheme")),
    ("sk", "cfs", _replace(b"scheme cfs", b"scheme rsa")),
    ("sk", "cfs", _replace(b"\nm 4", b"\nm 99")),
    ("pk", "cfs", _replace(b"\nm 4", b"\nm 99")),
    ("pk", "cfs", _replace(b"\nm 4", b"\nm 100000000000000")),
    ("sk", "cfs", lambda text: text.replace(b"\nP ", b"\nP 0 0 ", 1)),  # not a bijection
    ("sk", "mcfsc", lambda text: text.replace(b"\nP ", b"\nP 0 ", 1)),  # wrong length
    # P with an entry that is negative, past the end or not an integer, and
    # empty; -1 fills the slot a naive inverse[src] = j would leave open
    ("sk", "cfs", _replace(b"\nP ", b"\nP -1 ")),
    ("sk", "cfs", _replace(b"\nP ", b"\nP 16 ")),
    ("sk", "cfs", _replace(b"\nP ", b"\nP 0.5 ")),
    ("sk", "cfs", _rest_from(b"\nP ", b"\nP\n")),
    ("pk", "cfs", lambda text: text + b"\xff\xfe"),  # not ASCII
    ("sig", "cfs", lambda text: b"\xff" + text),
    ("sk", "tilde", lambda text: text.replace(b"\nt 3", "\nt \u0663".encode(), 1)),
    ("pk", "cfs", _replace(b"\nt 3", b"\nt 3.5")),
    ("sk", "cfs", _replace(b"\nt 3", b"\nt 2")),
    ("pk", "mcfsc", _replace(b"\nw 2", b"\nw two")),
    ("pk", "mcfsc", _replace(b"\nw 2", b"\nw 0")),
    ("sk", "mcfsc", _replace(b"\nw 2", b"\nw 3")),
    ("sk", "tilde", _replace(b"encoder regular", b"encoder rot13")),
    # public keys run the same header checks as secret keys
    ("pk", "cfs", _replace(b"hash_id sha256", b"hash_id md5")),
    ("pk", "tilde", _replace(b"hash_id md-stopped", b"hash_id md5")),
    ("pk", "tilde", _replace(b"encoder regular", b"encoder rot13")),
    ("pk", "mcfsc", _replace(b"\nw 2", b"\nw 4")),
    ("sig", "cfs", _replace(b"\nbits 16", b"\nbits sixteen")),
    ("sig", "cfs", _replace(b"\nbits 16", b"\nbits 17")),
    ("sig", "cfs", _replace(b"\ncounter ", b"\ncounter x")),
    ("sig", "mcfsc", _replace(b"\nnonce ", b"\nnonce 1 2 ")),
    ("sig", "tilde", _replace(b"\nerror ", b"\nerror zz")),
    # t must match the public matrix: m*t rows
    ("pk", "cfs", _replace(b"\nt 3", b"\nt 9")),
    ("pk", "cfs", _replace(b"\nt 3", b"\nt 2")),
    ("pk", "mcfsc", _replace(b"\nt 3", b"\nt 9")),
    ("pk", "mcfsc", _replace(b"\nt 3", b"\nt 2")),
    # field elements outside GF(16)
    ("sk", "cfs", _first_value(b"g", b"1f")),
    ("sk", "cfs", _first_value(b"g", b"-1")),
    ("sk", "cfs", _first_value(b"support", b"10")),
    ("sk", "cfs", _first_value(b"support", b"-1")),
    # a support that is not the whole field: H would have 2^m - 1 columns,
    # so the key could sign but no public key of it could verify
    ("sk", "cfs", _drop_last_position),
    # the matrix block: a "name rows cols" header, then rows hex lines of
    # ceil(cols / 8) bytes each
    ("pk", "cfs", _replace(b"\nH 12 16", b"\nH 12")),
    ("pk", "cfs", _replace(b"\nH 12 16", b"\nH 12 16 16")),
    ("pk", "cfs", _replace(b"\nH 12 16", b"\nH 12 x")),
    ("pk", "cfs", _replace(b"\nH 12 16", b"\nH 12 -16")),
    ("pk", "cfs", _replace(b"\nH 12 16", b"\nH 12 8")),  # 8 columns at m=4
    ("pk", "cfs", _first_row(b"H", lambda row: b"zz" + row[2:])),  # not hex
    ("pk", "cfs", _first_row(b"H", lambda row: row[:-1])),  # odd length
    ("pk", "cfs", _first_row(b"H", lambda row: row + b"00")),  # a byte long
    ("pk", "cfs", _first_row(b"H", lambda row: row[:-2])),  # a byte short
    ("sk", "cfs", _replace(b"\nS 12 12", b"\nS 12 16")),  # not square
    ("sk", "cfs", _replace(b"\nS 12 12", b"\nS -1 12")),
    # an (m, t) key generation refuses, with a key that matches it: t < 2
    # (verify then accepts the zero error), m outside 2..16, m*t >= 2^m
    ("pk", "cfs", _rest_from(b"\nm 4", b"\nm 4\nt 0\nhash_id sha256\nH 0 16\n")),
    ("pk", "cfs", _rest_from(b"\nm 4", b"\nm 1\nt 2\nhash_id sha256\nH 2 2\n80\n40\n")),
    (
        "sk",
        "cfs",
        _rest_from(
            b"\nm 4",
            b"\nm 2\nt 2\nhash_id sha256\ng 2 1 1\nsupport 0 1 2 3\n"
            b"S 4 4\n80\n40\n20\n10\nP 0 1 2 3\n",
        ),
    ),
    # a line after the last field the loader reads
    ("pk", "cfs", _repeat_last_line),  # one matrix row too many
    ("sk", "cfs", _repeat_last_line),  # the P line twice
    ("sig", "cfs", lambda text: text + b"error 00\n"),
]


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("good")
    keygens = {
        "cfs": lambda rng: cfs_keygen(4, 3, rng),
        "mcfsc": lambda rng: mcfsc_keygen(4, 3, 2, rng),
        "tilde": lambda rng: tilde_keygen(4, 3, 2, rng),
    }
    signers = {
        "cfs": lambda sk: cfs_sign(b"m", sk),
        "mcfsc": lambda sk: mcfsc_sign(b"m", sk, random.Random(12)),
        "tilde": lambda sk: tilde_sign(b"m", sk),
    }
    files = {}
    for scheme, keygen in keygens.items():
        sk, pk = keygen(random.Random(9))
        save_secret_key(sk, scheme, d / f"{scheme}.sk")
        save_public_key(pk, scheme, d / f"{scheme}.pk")
        save_signature(signers[scheme](sk), scheme, d / f"{scheme}.sig")
        for kind in ("sk", "pk", "sig"):
            files[kind, scheme] = (d / f"{scheme}.{kind}").read_bytes()
    return files


LOADERS = {"sk": load_secret_key, "pk": load_public_key, "sig": load_signature}


BAD_SCRAMBLERS = {
    "singular": (BitMatrix(12, 12, [1] * 12), BadParameters, "scrambler is singular"),
    "wrong size": (BitMatrix.identity(11), DimensionError, "scrambler is 11 x 11, not 12 x 12"),
}


@pytest.mark.parametrize("bad", BAD_SCRAMBLERS)
@pytest.mark.parametrize("how", ["from_parts", "key file"])
def test_bad_scrambler_refused_before_h_p_is_built(tmp_path, good_files, monkeypatch, how, bad):
    text = good_files["sk", "cfs"]
    _, sk = load_secret_key(_write(tmp_path / "good", text))
    scrambler, error, message = BAD_SCRAMBLERS[bad]

    def refused(code, perm):
        raise AssertionError("H * P built for a bad S")

    monkeypatch.setattr(GoppaCode, "permuted_h", refused)
    if how == "from_parts":
        with pytest.raises(error, match=message):
            SCHEMES["cfs"].from_parts(sk.code, sk.perm, scrambler, hash_id="sha256")
    else:
        lines = text.decode().split("\n")
        start = lines.index("S 12 12")
        lines[start : start + 13] = _matrix_lines("S", scrambler)
        with pytest.raises(KeyFormatError, match=message):
            load_secret_key(_write(tmp_path / "bad", "\n".join(lines).encode()))


def test_malformed_files_rejected(tmp_path, good_files):
    for kind, scheme, mutate in MALFORMED:
        text = good_files[kind, scheme]
        LOADERS[kind](_write(tmp_path / "good", text))  # the unmutated file loads
        bad = mutate(text)
        assert bad != text
        with pytest.raises(KeyFormatError):
            LOADERS[kind](_write(tmp_path / "bad", bad))


def test_matrix_rows_may_hold_whitespace(tmp_path, good_files):
    text = good_files["pk", "cfs"]
    spaced = _first_row(b"H", lambda row: row[:2] + b" " + row[2:])(text)
    assert spaced != text
    assert load_public_key(_write(tmp_path / "spaced", spaced)) == load_public_key(
        _write(tmp_path / "good", text)
    )


def _write(path, data):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("scheme", ["cfs", "mcfsc"])  # scrambled, and not
@pytest.mark.parametrize("delta", [-1, 1])
def test_p_of_the_wrong_length_is_refused(tmp_path, good_files, scheme, delta):
    # P a bijection on n - 1 or n + 1 positions: H * P is built by indexing
    # the support with P, so its length is checked before the support is read
    text = good_files["sk", scheme]
    _, sk = load_secret_key(_write(tmp_path / "good", text))
    perm = Permutation.random(sk.code.n + delta, random.Random(sk.code.n + delta))
    lines = [b"P " + perm.to_text().encode() if ln.startswith(b"P ") else ln for ln in text.split(b"\n")]
    with pytest.raises(KeyFormatError):
        load_secret_key(_write(tmp_path / "bad", b"\n".join(lines)))
    record = SCHEMES[scheme]
    fields = {f: getattr(sk.pk, f) for f in record.header}
    if record.scrambled:
        fields["scrambler"] = sk.scrambler
    with pytest.raises(DimensionError):
        record.from_parts(sk.code, perm, **fields)
