import json

import pytest

from cfslab import cli
from cfslab.cli import run


def _paths(tmp_path, *names):
    return [str(tmp_path / n) for n in names]


def keygen(tmp_path, scheme="mcfsc", extra=()):
    sk, pk = _paths(tmp_path, "sk.key", "pk.key")
    args = ["keygen", "--scheme", scheme, "-m", "4", "-t", "3", "--seed", "7", "--sk", sk, "--pk", pk]
    if scheme in ("mcfsc", "tilde"):
        args += ["-w", "2"]
    args += list(extra)
    assert run(args) == 0
    return sk, pk


def test_keygen_sign_verify_round_trip(tmp_path, capsys):
    sk, pk = keygen(tmp_path)
    (sig,) = _paths(tmp_path, "sig.txt")
    assert run(["sign", "--sk", sk, "--msg-hex", "00ff42", "--sig", sig, "--seed", "8"]) == 0
    assert run(["verify", "--pk", pk, "--msg-hex", "00ff42", "--sig", sig]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_verify_fails_on_tampered_signature(tmp_path):
    sk, pk = keygen(tmp_path, scheme="cfs")
    (sig,) = _paths(tmp_path, "sig.txt")
    assert run(["sign", "--sk", sk, "--msg-hex", "0a0b", "--sig", sig]) == 0
    assert run(["verify", "--pk", pk, "--msg-hex", "0a0c", "--sig", sig]) == 1


@pytest.mark.parametrize("scheme,field", [("cfs", "counter"), ("mcfs", "nonce"), ("mcfsc", "nonce")])
@pytest.mark.parametrize("value", ["-5", str(1 << 64)])
def test_verify_unencodable_counter_is_invalid(tmp_path, scheme, field, value):
    sk, pk = keygen(tmp_path, scheme=scheme)
    (sig,) = _paths(tmp_path, "sig.txt")
    assert run(["sign", "--sk", sk, "--msg-hex", "0a0b", "--sig", sig, "--seed", "8"]) == 0
    lines = (tmp_path / "sig.txt").read_text().splitlines()
    assert any(ln.startswith(field + " ") for ln in lines)
    lines = [f"{field} {value}" if ln.startswith(field + " ") else ln for ln in lines]
    (tmp_path / "sig.txt").write_text("\n".join(lines) + "\n")
    assert run(["verify", "--pk", pk, "--msg-hex", "0a0b", "--sig", sig]) == 1


def _last_json(capsys):
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def test_forge_then_verify_demonstrates_the_break(tmp_path, capsys):
    _, pk = keygen(tmp_path)
    (forged,) = _paths(tmp_path, "forged.txt")
    assert run(["forge", "--pk", pk, "--msg-hex", "00ff42", "--sig", forged, "--seed", "9"]) == 0
    record = _last_json(capsys)
    assert record["verified"] is True
    assert record["cost"]["decode_calls"] == 0
    assert run(["verify", "--pk", pk, "--msg-hex", "00ff42", "--sig", forged]) == 0


def test_forge_tilde_via_cli(tmp_path, capsys):
    _, pk = keygen(tmp_path, scheme="tilde")
    (forged,) = _paths(tmp_path, "forged.txt")
    assert run(["forge", "--pk", pk, "--msg-hex", "aabb", "--sig", forged]) == 0
    assert run(["verify", "--pk", pk, "--msg-hex", "aabb", "--sig", forged]) == 0


def test_forge_refused_for_cfs(tmp_path):
    _, pk = keygen(tmp_path, scheme="cfs")
    (forged,) = _paths(tmp_path, "forged.txt")
    assert run(["forge", "--pk", pk, "--msg-hex", "00", "--sig", forged]) == 2


def test_recover_perm(tmp_path, capsys):
    sk, pk = keygen(tmp_path)
    (out,) = _paths(tmp_path, "perm.txt")
    assert run(["recover-perm", "--sk", sk, "--pk", pk, "--out", out]) == 0
    record = _last_json(capsys)
    assert record["recovered_equals_secret"] is True
    assert record["comparisons"] <= record["quadratic_bound"]


def test_census_record(capsys):
    assert run(["census", "-m", "4", "-t", "2", "--seed", "1"]) == 0
    record = _last_json(capsys)
    assert record["decodable"] == 137
    assert record["total"] == 256
    assert record["ratio"] == pytest.approx(0.53515625)
    assert record["t_factorial_approx"] == pytest.approx(0.5)


def test_census_past_the_limit_draws_no_key(monkeypatch, capsys):
    # m=16, t=400 is a valid (m, t), but its 2^6400 syndromes are refused
    # before keygen would search for an irreducible g of degree 400
    def no_keygen(*args):
        raise AssertionError("goppa_keygen called")

    monkeypatch.setattr(cli, "goppa_keygen", no_keygen)
    assert run(["census", "-m", "16", "-t", "400"]) == 2
    assert "2^6400 syndromes is past the exhaustive limit" in capsys.readouterr().err


def test_bench_record(capsys):
    assert run(["bench", "-m", "4", "-t", "3", "-w", "2", "--messages", "25", "--seed", "2"]) == 0
    record = _last_json(capsys)
    assert record["mcfsc"]["attempts_per_signature"] == 1
    assert record["mcfsc"]["forged_decode_calls"] == 0
    assert record["mcfsc"]["honest_decode_calls"] == 25
    assert 1 <= record["cfs"]["mean_attempts"] < 30


@pytest.mark.parametrize("count", ["0", "-1", "x"])
def test_bench_rejects_a_message_count_below_one(capsys, count):
    argv = ["bench", "-m", "4", "-t", "3", "-w", "2", "--messages", count, "--seed", "2"]
    assert run(argv) == 2
    assert "--messages" in capsys.readouterr().err


def test_seeded_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        sk, pk = keygen(d)
        sig, forged = _paths(d, "sig.txt", "forged.txt")
        assert run(["sign", "--sk", sk, "--msg-hex", "00ff", "--sig", sig, "--seed", "5"]) == 0
        assert run(["forge", "--pk", pk, "--msg-hex", "00ff", "--sig", forged, "--seed", "6"]) == 0
    for name in ("sk.key", "pk.key", "sig.txt", "forged.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["keygen", "--scheme", "nonsense"]) == 2
    assert run(["sign"]) == 2
    assert run([]) == 2
    # mcfsc without -w is a usage error caught after parsing
    sk, pk = _paths(tmp_path, "x", "y")
    assert run(["keygen", "--scheme", "mcfsc", "-m", "4", "-t", "3", "--sk", sk, "--pk", pk]) == 2
    capsys.readouterr()


def test_malformed_key_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.key"
    bad.write_text("garbage\n")
    assert run(["verify", "--pk", str(bad), "--msg-hex", "00", "--sig", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_verify_reads_only_the_public_key(tmp_path):
    # handing the secret key file to verify is rejected outright
    sk, pk = keygen(tmp_path, scheme="cfs")
    (sig,) = _paths(tmp_path, "sig.txt")
    assert run(["sign", "--sk", sk, "--msg-hex", "77", "--sig", sig]) == 0
    assert run(["verify", "--pk", sk, "--msg-hex", "77", "--sig", sig]) == 2


def test_message_from_file(tmp_path):
    sk, pk = keygen(tmp_path, scheme="mcfs")
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"\x00\x01\x02binary message")
    (sig,) = _paths(tmp_path, "sig.txt")
    assert run(["sign", "--sk", sk, "--msg-file", str(msg), "--sig", sig, "--seed", "3"]) == 0
    assert run(["verify", "--pk", pk, "--msg-file", str(msg), "--sig", sig]) == 0


def _mutate(path, old, new):
    data = open(path, "rb").read()
    assert old in data
    with open(path, "wb") as fh:
        fh.write(data.replace(old, new, 1))


# id -> (command, file to mutate, bytes replaced, replacement)
HOSTILE = {
    "pk-m-not-int": ("verify", "pk", b"\nm 4", b"\nm x"),
    "sk-m-not-int": ("sign", "sk", b"\nm 4", b"\nm x"),
    "pk-bare-scheme": ("verify", "pk", b"scheme mcfsc", b"scheme"),
    "sig-bare-scheme": ("verify", "sig", b"scheme mcfsc", b"scheme"),
    "sk-m-99": ("sign", "sk", b"\nm 4", b"\nm 99"),
    # a block count below 1
    "pk-w-0": ("verify", "pk", b"\nw 2", b"\nw 0"),
    "sk-w-negative": ("sign", "sk", b"\nw 2", b"\nw -2"),
    "pk-m-99": ("verify", "pk", b"\nm 4", b"\nm 99"),
    "sk-P-not-bijective": ("sign", "sk", b"\nP ", b"\nP 0 0 "),
    "sk-P-negative": ("sign", "sk", b"\nP ", b"\nP -1 "),
    "sk-P-past-the-end": ("sign", "sk", b"\nP ", b"\nP 16 "),
    "sk-P-not-int": ("sign", "sk", b"\nP ", b"\nP 1.5 "),
    "pk-not-utf8": ("verify", "pk", b"cfslab-key v1\n", b"cfslab-key v1\n\xff\xfe\n"),
    "sig-not-utf8": ("verify", "sig", b"\nscheme", b"\n\xc3\x28scheme"),
    "sk-t-not-int": ("sign", "sk", b"\nt 3", b"\nt three"),
    "pk-w-not-int": ("verify", "pk", b"\nw 2", b"\nw 2.0"),
    "sig-bits-not-int": ("verify", "sig", b"\nbits 16", b"\nbits 0x10"),
    "sig-nonce-not-int": ("verify", "sig", b"\nnonce ", b"\nnonce n"),
    "pk-t-disagrees-with-H": ("verify", "pk", b"\nt 3", b"\nt 9"),
    # an m=1 key with a matching 2x2 H; the original matrix trails unread
    "pk-m-1": ("verify", "pk", b"\nm 4\nt 3\nw 2\n", b"\nm 1\nt 2\nw 1\nH 2 2\n80\n40\n"),
    # 797 more coefficients raise g to degree 800: refused on m*t >= 2^m
    "sk-t-800": ("sign", "sk", b"\nt 3\nw 2\ng ", b"\nt 800\nw 2\ng " + b"1 " * 797),
}


@pytest.mark.parametrize("command,target,old,new", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_files_exit_2(tmp_path, capsys, command, target, old, new):
    sk, pk = keygen(tmp_path)
    (sig,) = _paths(tmp_path, "sig.txt")
    assert run(["sign", "--sk", sk, "--msg-hex", "00", "--sig", sig, "--seed", "8"]) == 0
    _mutate({"sk": sk, "pk": pk, "sig": sig}[target], old, new)
    if command == "sign":
        argv = ["sign", "--sk", sk, "--msg-hex", "00", "--sig", str(tmp_path / "out.txt")]
    else:
        argv = ["verify", "--pk", pk, "--msg-hex", "00", "--sig", sig]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
