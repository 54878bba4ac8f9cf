"""Command-line front end.

Exit codes: 0 success (including "signature valid"), 1 verification or
forgery failure, 2 usage errors and malformed files.  With --seed every
run is bit-exact reproducible; without it the system RNG seeds the run.

    cfslab keygen --scheme mcfsc -m 4 -t 3 -w 2 --seed 7 --sk sk.key --pk pk.key
    cfslab sign   --sk sk.key --msg-hex 00ff --sig sig.txt --seed 8
    cfslab verify --pk pk.key --msg-hex 00ff --sig sig.txt
    cfslab forge  --pk pk.key --msg-hex 00ff --sig forged.txt --seed 9
    cfslab recover-perm --sk sk.key --pk pk.key
    cfslab census -m 4 -t 2 --seed 1
    cfslab bench  -m 4 -t 3 -w 2 --messages 50 --seed 2
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

from . import attacks, codehash, keyfiles, schemes
from .errors import CfsLabError
from .goppa import check_census_size, check_parameters, decodable_census, goppa_keygen
from .metering import count_operations


def _rng(seed):
    return random.Random(seed)


def _message(args) -> bytes:
    if args.msg_hex is not None:
        try:
            return bytes.fromhex(args.msg_hex)
        except ValueError as exc:
            raise CfsLabError(f"bad --msg-hex: {exc}") from exc
    if args.msg_file is not None:
        with open(args.msg_file, "rb") as fh:
            return fh.read()
    raise CfsLabError("one of --msg-hex or --msg-file is required")


def _positive_int(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_message_args(p) -> None:
    p.add_argument("--msg-hex", help="message bytes as hex")
    p.add_argument("--msg-file", help="message file (raw bytes)")


def _cmd_keygen(args) -> int:
    scheme = schemes.SCHEMES[args.scheme]
    if "w" in scheme.header and args.w is None:
        raise CfsLabError(f"{args.scheme} needs -w")
    # options a scheme does not store are ignored; absent ones take its defaults
    options = {f: v for f in scheme.header if (v := getattr(args, f)) is not None}
    sk, pk = scheme.keygen(m=args.m, t=args.t, rng=_rng(args.seed), **options)
    keyfiles.save_secret_key(sk, args.scheme, args.sk)
    keyfiles.save_public_key(pk, args.scheme, args.pk)
    print(f"wrote {args.sk} and {args.pk}")
    return 0


def _cmd_sign(args) -> int:
    scheme, sk = keyfiles.load_secret_key(args.sk)
    msg = _message(args)
    sig = schemes.SCHEMES[scheme].sign(msg, sk, _rng(args.seed))
    keyfiles.save_signature(sig, scheme, args.sig)
    print(f"wrote {args.sig}")
    return 0


def _cmd_verify(args) -> int:
    scheme, pk = keyfiles.load_public_key(args.pk)
    sig_scheme, sig = keyfiles.load_signature(args.sig)
    if sig_scheme != scheme:
        raise CfsLabError(f"signature is for {sig_scheme!r}, key is {scheme!r}")
    msg = _message(args)
    ok = schemes.SCHEMES[scheme].verify(msg, sig, pk)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def _cmd_forge(args) -> int:
    scheme, pk = keyfiles.load_public_key(args.pk)
    msg = _message(args)
    forger = attacks.FORGERS.get(scheme)
    if forger is None:
        raise CfsLabError(f"no generic forgery implemented for scheme {scheme!r}")
    forgery = forger(msg, pk, _rng(args.seed))
    verified = schemes.SCHEMES[scheme].verify(msg, forgery.signature, pk)
    keyfiles.save_signature(forgery.signature, scheme, args.sig)
    print(json.dumps(attacks.forgery_record(scheme, forgery, verified)))
    return 0 if verified else 1


def _cmd_recover_perm(args) -> int:
    scheme, sk = keyfiles.load_secret_key(args.sk)
    pk_scheme, pk = keyfiles.load_public_key(args.pk)
    if scheme != pk_scheme:
        raise CfsLabError("key files belong to different schemes")
    rec = attacks.recover_permutation(sk.code.h, pk.h_pub)
    consistent = sk.code.permuted_h(rec.perm) == pk.h_pub
    print(
        json.dumps(
            {
                "recovered_equals_secret": rec.perm == sk.perm,
                "consistent": consistent,
                "ambiguous": rec.ambiguous,
                "comparisons": rec.comparisons,
                "quadratic_bound": sk.code.n**2,
            }
        )
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rec.perm.to_text() + "\n")
    return 0 if consistent else 1


def _cmd_census(args) -> int:
    check_parameters(args.m, args.t)
    check_census_size(args.m * args.t)
    rng = _rng(args.seed)
    code = goppa_keygen(args.m, args.t, rng)
    report = decodable_census(code)
    print(json.dumps(report.as_dict()))
    return 0


def _cmd_bench(args) -> int:
    rng = _rng(args.seed)
    messages = [rng.randbytes(32) for _ in range(args.messages)]

    csk, cpk = schemes.cfs_keygen(args.m, args.t, rng)
    attempts = []
    for msg in messages:
        sig = schemes.cfs_sign(msg, csk)
        attempts.append(sig.counter + 1)

    msk, mpk = schemes.mcfsc_keygen(args.m, args.t, args.w, rng)
    honest = []
    forged = []
    for msg in messages:
        with count_operations() as ops:
            schemes.mcfsc_sign(msg, msk, rng)
        honest.append(ops)
        forgery = attacks.forge_mcfsc(msg, mpk, rng)
        forged.append(forgery.cost)

    report = {
        "cfs": {
            "m": args.m,
            "t": args.t,
            "messages": args.messages,
            "mean_attempts": statistics.fmean(attempts),
            "max_attempts": max(attempts),
        },
        "mcfsc": {
            "w": args.w,
            "attempts_per_signature": 1,
            "honest_mean_compressions": statistics.fmean(c.compressions for c in honest),
            "forged_mean_compressions": statistics.fmean(c.compressions for c in forged),
            "honest_decode_calls": sum(c.decode_calls for c in honest),
            "forged_decode_calls": sum(c.decode_calls for c in forged),
        },
    }
    print(json.dumps(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--scheme", required=True, choices=schemes.SCHEMES)
    p.add_argument("-m", type=int, required=True, help="field extension degree")
    p.add_argument("-t", type=int, required=True, help="correction capability")
    p.add_argument("-w", type=int, help="hash block count (mcfsc, tilde)")
    p.add_argument("--hash-id", dest="hash_id", choices=schemes.INNER_HASHES)
    p.add_argument("--encoder", dest="encoder_id", choices=codehash.ENCODERS)
    p.add_argument("--seed", type=int)
    p.add_argument("--sk", required=True, help="secret key output path")
    p.add_argument("--pk", required=True, help="public key output path")
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("sign", help="sign a message")
    p.add_argument("--sk", required=True)
    _add_message_args(p)
    p.add_argument("--sig", required=True, help="signature output path")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_sign)

    p = sub.add_parser("verify", help="verify a signature (public key only)")
    p.add_argument("--pk", required=True)
    _add_message_args(p)
    p.add_argument("--sig", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("forge", help="forge a signature from the public key")
    p.add_argument("--pk", required=True)
    _add_message_args(p)
    p.add_argument("--sig", required=True, help="forged signature output path")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_forge)

    p = sub.add_parser(
        "recover-perm", help="recover the column permutation from a disclosed H"
    )
    p.add_argument("--sk", required=True, help="secret key file supplying H and the true P")
    p.add_argument("--pk", required=True, help="public key file supplying H_pub")
    p.add_argument("--out", help="write the recovered permutation here")
    p.set_defaults(fn=_cmd_recover_perm)

    p = sub.add_parser("census", help="count decodable syndromes exhaustively")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("bench", help="signing effort: retry scheme vs single decode")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-w", type=int, required=True)
    p.add_argument("--messages", type=_positive_int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CfsLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
