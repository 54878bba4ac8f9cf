"""Forgeries and key-recovery against the code-hash signature variants.

Everything here runs from public data alone: public keys, the public hash
configuration, and the registered encoders.  No decoder and no secret key
type is imported, which is the point -- the forger never decodes.

forge_mcfsc   halts the outer hash one round early and publishes the
              regular word of the final state as the error vector.
forge_tilde   skips the syndrome entirely: the encoded inner digest IS a
              valid error vector for its own syndrome.
recover_permutation
              matches columns between a disclosed parity-check matrix and
              its column-permuted public counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codehash import md_final_state, regular_word
from .errors import NoPermutationError
from .linalg import BitMatrix, Permutation
from .metering import OperationCount, count_operations
from .schemes import (
    SCHEMES,
    McfscPublicKey,
    McfsSignature,
    TildePublicKey,
    TildeSignature,
    _counter_bytes,
    chain_input,
    draw_nonce,
)


@dataclass(frozen=True)
class Forgery:
    message: bytes
    signature: object
    cost: OperationCount
    r: int  # n-k of the attacked key, which sets the width of a hashed nonce


def forge_mcfsc(msg: bytes, pk: McfscPublicKey, rng) -> Forgery:
    """Forge a signature from the public key alone.

    Computing h(h(msg) || nonce) honestly but stopping before the final
    compression leaves the last chain state; its regular word is a
    weight-w error whose syndrome is exactly the full digest, so the
    verifier's comparison closes by construction.  One compression
    cheaper than honest signing, and decode-free.
    """
    with count_operations() as cost:
        nonce = draw_nonce(rng, pk.r)
        state = md_final_state(chain_input(msg, nonce, pk.cfg), pk.cfg)
        error = regular_word(state, pk.cfg)
    return Forgery(msg, McfsSignature(nonce, error), cost, pk.r)


def forge_tilde(msg: bytes, pk: TildePublicKey) -> Forgery:
    """Output encoder(inner_hash(msg)) as the signature.

    The scheme's digest is the syndrome of that very word, so the word
    verifies against it; the encoder's own weight bound, enforced on
    every call, is the whole weight gate.  The honest signer pays a decode
    to arrive at the same vector; the attacker just writes it down.
    """
    with count_operations() as cost:
        word = pk.encoder(pk.inner_hash(msg))
    return Forgery(msg, TildeSignature(word), cost, pk.h_pub.rows)


# scheme name -> forger(msg, pk, rng); cfs and mcfs have none
FORGERS = {"mcfsc": forge_mcfsc, "tilde": lambda msg, pk, rng: forge_tilde(msg, pk)}


@dataclass(frozen=True)
class PermutationRecovery:
    perm: Permutation
    ambiguous: bool
    comparisons: int


def recover_permutation(h: BitMatrix, h_pub: BitMatrix) -> PermutationRecovery:
    """Find Q with H * Q = H_pub by matching column fingerprints.

    Columns are packed into integers and sorted, so the explicit
    fingerprint comparisons stay linear instead of the quadratic
    worst-case scan.  When H has duplicate columns any consistent pairing
    is returned and the result is flagged ambiguous; when the column
    multisets differ there is no permutation at all.
    """
    if h.rows != h_pub.rows or h.cols != h_pub.cols:
        raise NoPermutationError("shape mismatch")
    cols = h.columns()
    cols_pub = h_pub.columns()
    order = sorted(range(h.cols), key=cols.__getitem__)
    order_pub = sorted(range(h.cols), key=cols_pub.__getitem__)
    mapping = [0] * h.cols
    comparisons = 0
    ambiguous = False
    prev = None
    for src, dst in zip(order, order_pub):
        comparisons += 1
        if cols[src] != cols_pub[dst]:
            raise NoPermutationError("column multisets differ")
        if prev is not None:
            comparisons += 1
            if cols[src] == prev:
                ambiguous = True
        prev = cols[src]
        mapping[dst] = src
    return PermutationRecovery(Permutation(mapping), ambiguous, comparisons)


def forgery_record(scheme: str, forgery: Forgery, verified: bool) -> dict:
    """Audit record for a forgery transcript."""
    sig = forgery.signature
    counter = SCHEMES[scheme].counter
    prefix = b"" if counter is None else _counter_bytes(getattr(sig, counter), forgery.r)
    return {
        "scheme": scheme,
        "msg_hex": forgery.message.hex(),
        "signature_hex": (prefix + sig.error.to_bytes()).hex(),
        "verified": verified,
        "cost": forgery.cost.as_dict(),
    }
