"""Hypothesis fuzzing of the CLI with mutated key and signature files.

Whatever bytes a key or signature file holds, `cli.run` answers with an
exit code (0 valid, 1 invalid, 2 malformed) and never raises.  Files come
from m=4 keys of every scheme and are mutated by byte flips, truncation,
and swapping or dropping whitespace-separated tokens.  The examples are
derandomized, so a failure reproduces on every run.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfslab.cli import run
from cfslab.schemes import SCHEMES

MSG = "00ff"
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _quiet_run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for scheme in SCHEMES:
        w = ["-w", "2"] if "w" in SCHEMES[scheme].header else []
        sk, pk, sig = (str(d / f"{scheme}.{kind}") for kind in ("sk", "pk", "sig"))
        keygen = ["keygen", "--scheme", scheme, "-m", "4", "-t", "3", *w, "--seed", "3"]
        assert _quiet_run([*keygen, "--sk", sk, "--pk", pk]) == 0
        assert _quiet_run(["sign", "--sk", sk, "--msg-hex", MSG, "--sig", sig, "--seed", "4"]) == 0
    return d


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """One to three flips, truncations, token swaps or token drops."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "swap", "drop")))
        if kind == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
        elif kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        else:
            parts = re.split(rb"(\s+)", data)  # tokens at even positions
            tokens = range(0, len(parts), 2)
            i = draw(st.sampled_from(tokens))
            if kind == "swap":
                j = draw(st.sampled_from(tokens))
                parts[i], parts[j] = parts[j], parts[i]
            else:
                parts[i] = b""
            data = b"".join(parts)
    return data


def _fuzz(workdir, scheme, target, data, argv):
    original = workdir / f"{scheme}.{target}"
    path = workdir / f"mutated.{target}"
    path.write_bytes(data.draw(mutated(original.read_bytes())))
    files = {kind: str(workdir / f"{scheme}.{kind}") for kind in ("sk", "pk", "sig")}
    files[target] = str(path)
    assert _quiet_run(argv(files)) in (0, 1, 2)


@FUZZ
@given(scheme=st.sampled_from(list(SCHEMES)), target=st.sampled_from(("pk", "sig")), data=st.data())
def test_verify_survives_mutated_files(workdir, scheme, target, data):
    _fuzz(workdir, scheme, target, data,
          lambda f: ["verify", "--pk", f["pk"], "--msg-hex", MSG, "--sig", f["sig"]])


@FUZZ
@given(scheme=st.sampled_from(list(SCHEMES)), data=st.data())
def test_sign_survives_mutated_secret_key(workdir, scheme, data):
    out = str(workdir / "out.sig")
    _fuzz(workdir, scheme, "sk", data,
          lambda f: ["sign", "--sk", f["sk"], "--msg-hex", MSG, "--sig", out, "--seed", "5"])


@FUZZ
@given(scheme=st.sampled_from(list(SCHEMES)), target=st.sampled_from(("sk", "pk")), data=st.data())
def test_recover_perm_survives_mutated_keys(workdir, scheme, target, data):
    _fuzz(workdir, scheme, target, data,
          lambda f: ["recover-perm", "--sk", f["sk"], "--pk", f["pk"]])


@FUZZ
@given(scheme=st.sampled_from(("mcfsc", "tilde")), data=st.data())
def test_forge_survives_mutated_public_key(workdir, scheme, data):
    out = str(workdir / "forged.sig")
    _fuzz(workdir, scheme, "pk", data,
          lambda f: ["forge", "--pk", f["pk"], "--msg-hex", MSG, "--sig", out, "--seed", "6"])
