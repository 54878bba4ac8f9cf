"""cfslab: code-based hash-and-sign signatures, the code-based hash they
lean on, and the forgeries that break the hash-to-decodable-syndrome
shortcut -- all at desk-scale parameters where every claim is checkable
exhaustively.
"""

from .errors import (
    AttemptLimitExceeded,
    BadParameters,
    CensusInfeasible,
    CfsLabError,
    DecodingInvariantError,
    DimensionError,
    InversionOfZero,
    KeyFormatError,
    NoPermutationError,
    NotInvertible,
    WeightBoundViolation,
)
from .gf2m import GF2m, Poly, partial_euclid, poly_gcd, poly_mod_inv, poly_sqrt_mod_g
from .linalg import (
    BitMatrix,
    BitVector,
    Permutation,
    inverse,
    mat_mul,
    mat_vec,
    rand_invertible,
    rank,
)
from .goppa import CensusReport, GoppaCode, decodable_census, goppa_keygen, patterson_decode
from .codehash import (
    BoundedWeightEncoder,
    HashConfig,
    compress,
    digest_bits,
    make_encoder,
    md_final_state,
    md_hash,
    regular_word,
    split,
    syndrome_hash,
)
from .metering import OperationCount, count_operations
from .schemes import (
    CfsPublicKey,
    CfsSignature,
    McfscPublicKey,
    McfsSignature,
    SecretKey,
    TildePublicKey,
    TildeSignature,
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
from .attacks import (
    Forgery,
    PermutationRecovery,
    forge_mcfsc,
    forge_tilde,
    recover_permutation,
)

__version__ = "0.1.0"
