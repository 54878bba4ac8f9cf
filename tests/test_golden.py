"""Seeded CLI output pinned byte for byte.

Every key, signature and forgery file the CLI writes at a fixed seed, and
the forgery audit record it prints, is compared by SHA-256 against digests
recorded from the released file formats.  A refactor that reorders a
header field, changes a counter width at n-k <= 64 or draws the RNG in a
different order fails here, not only in a later comparison of two runs.
"""

import hashlib

import pytest

from cfslab.cli import run

MSG = "c0ffee"

# name -> (keygen arguments, keygen seed, sign seed, forge seed or None)
CASES = {
    "cfs": (["--scheme", "cfs", "-m", "4", "-t", "3"], 11, 12, None),
    "mcfs": (["--scheme", "mcfs", "-m", "4", "-t", "3"], 13, 14, None),
    "mcfsc": (["--scheme", "mcfsc", "-m", "4", "-t", "3", "-w", "2"], 15, 16, 17),
    "mcfsc-m6": (["--scheme", "mcfsc", "-m", "6", "-t", "5", "-w", "4"], 18, 19, 20),
    "tilde": (["--scheme", "tilde", "-m", "4", "-t", "3", "-w", "2"], 21, 22, 23),
    "tilde-digits": (
        ["--scheme", "tilde", "-m", "4", "-t", "3", "-w", "2",
         "--encoder", "digits", "--hash-id", "sha256"],
        24, 25, 26,
    ),
}

GOLDEN = {
    "cfs": {
        "sk.key": "2494808e4bf0c70b6178ba44ea4109c80c9bb00c827f80db6d2978937fa020e9",
        "pk.key": "316cbe103921d24ebe018747899ae1c935ad637692bccfc921512275b207597c",
        "sig.txt": "c3ab8555cc9f6a2788587d0992e98cfacccb6a3d027c38fbbf0369c7dfa91815",
    },
    "mcfs": {
        "sk.key": "8fcabb307b0b756672c98b60cd6b7eef9484d742e8b4a9594f8dad48bb057b08",
        "pk.key": "45e82cf376ded9d4a3ddaaccc19797de598af4f553e5b11874868a8b172e1c38",
        "sig.txt": "86a7046377b1a466692c77a69e35ab41b9f8292ff3125d38d6aceaf3f37dbacf",
    },
    "mcfsc": {
        "sk.key": "4d11ff2f00f18c32090b752dd767aab7d123d5dea3bd002d2155dbadf9f9fbd0",
        "pk.key": "aa6e796fc2d3f551be1ce150a29796c0059f9bd90dc654aa90ecc05336186970",
        "sig.txt": "9015986e6995aa5ee64e0a23b26a3816e62d7b1fd0a5ae7976deabf95320697d",
        "forged.txt": "46a67a45496230f3238119409079948f212056ff8fe26343245e342742516ca9",
        "forge record": "8dfc00f56b0e3331cbea50c1438b9a4a5d548ee8d29190765714cd2d65e45be1",
    },
    "mcfsc-m6": {
        "sk.key": "605f44f5ab2b1be35b2ad8cf01bccac862f32124823d6f901848f3ead2239f4b",
        "pk.key": "11a9369763a3ab90a3b280b201c07f3045c0710cca63ac728f3fdf4ee047bccb",
        "sig.txt": "97412ce636a8d7fc09de3e4a3f477784e8138e7293b5b5e8781c7ed849b5735f",
        "forged.txt": "027c55ac18ace26cb7f4da33ab2a69a07bcffbbc95b6319f910287b5d2168366",
        "forge record": "e6b270c11a98093a012777b709f80d2e7f418c6dc6cd44445e5f55a84ec30835",
    },
    "tilde": {
        "sk.key": "7add278a1859e8619b83cf7ad6698a6b53abfff09e5af5e109c4a91a34178d36",
        "pk.key": "f31f6959f8c47e3b6cbaf968a4d8d00ab5e7c3ae8e1f49dd26b9cd82fc976efb",
        "sig.txt": "f23afc90bf8193f59bd2255afc5b08bbb1864e3a4ad7fac134a7ed017f6795ca",
        "forged.txt": "f23afc90bf8193f59bd2255afc5b08bbb1864e3a4ad7fac134a7ed017f6795ca",
        "forge record": "c3d34681489711e75f9e734945669c5b268128f229f3ce2c55b205a92ea50e39",
    },
    "tilde-digits": {
        "sk.key": "e9ad8f5d6ffbd2643a4682e1c160eed53c4ec17218d5041102769845338f7f57",
        "pk.key": "96456b8dfd6330f570ecc07ae7076dfcdf3d4ee6dae2a52062e643794179c10f",
        "sig.txt": "c9814a2f655e09772d22b92abc1783edc7aeea4c7f6440d4f80c414e67f00071",
        "forged.txt": "c9814a2f655e09772d22b92abc1783edc7aeea4c7f6440d4f80c414e67f00071",
        "forge record": "6e3b9e74e4ff41503be4a7ff22050ac2d727480a6e006fd815c3101e79b2665f",
    },
}


def _outputs(tmp_path, capsys, name):
    keygen_args, key_seed, sign_seed, forge_seed = CASES[name]
    sk, pk, sig, forged = (str(tmp_path / f) for f in ("sk.key", "pk.key", "sig.txt", "forged.txt"))
    assert run(["keygen", *keygen_args, "--seed", str(key_seed), "--sk", sk, "--pk", pk]) == 0
    assert run(["sign", "--sk", sk, "--msg-hex", MSG, "--sig", sig, "--seed", str(sign_seed)]) == 0
    assert run(["verify", "--pk", pk, "--msg-hex", MSG, "--sig", sig]) == 0
    files = {"sk.key": sk, "pk.key": pk, "sig.txt": sig}
    capsys.readouterr()
    record = None
    if forge_seed is not None:
        argv = ["forge", "--pk", pk, "--msg-hex", MSG, "--sig", forged, "--seed", str(forge_seed)]
        assert run(argv) == 0
        record = capsys.readouterr().out.strip().splitlines()[-1]
        files["forged.txt"] = forged
    digests = {}
    for label, path in files.items():
        with open(path, "rb") as fh:
            digests[label] = hashlib.sha256(fh.read()).hexdigest()
    if record is not None:
        digests["forge record"] = hashlib.sha256(record.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden_digests(tmp_path, capsys, name):
    assert _outputs(tmp_path, capsys, name) == GOLDEN[name]
