import random

import pytest

from cfslab import codehash
from cfslab.codehash import (
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
from cfslab.errors import BadParameters, DimensionError, WeightBoundViolation
from cfslab.goppa import goppa_keygen, patterson_decode
from cfslab.linalg import BitMatrix, BitVector, Permutation, mat_vec
from cfslab.metering import count_operations
from oracles import from_bits


@pytest.fixture(scope="module")
def cfg16():
    """n=16, w=2: l=8, s=6, r=12 -- the worked-example configuration."""
    code = goppa_keygen(4, 3, random.Random(201))
    h_pub = code.permuted_h(Permutation.random(16, random.Random(202)))
    return HashConfig(h_pub, 2)


@pytest.fixture(scope="module")
def code16():
    return goppa_keygen(4, 3, random.Random(203))


def random_cfg(r, n, w, seed):
    rng = random.Random(seed)
    h = BitMatrix(r, n, [rng.getrandbits(n) for _ in range(r)])
    return HashConfig(h, w)


def test_config_validation():
    rng = random.Random(1)
    h = BitMatrix(4, 16, [rng.getrandbits(16) for _ in range(4)])
    with pytest.raises(BadParameters):
        HashConfig(h, 3)  # 3 does not divide 16
    with pytest.raises(BadParameters):
        HashConfig(h, 16)  # block size 1
    cfg = HashConfig(h, 2)
    assert (cfg.l, cfg.s, cfg.r) == (8, 6, 4)


def test_split_worked_examples(cfg16):
    assert split(BitVector.zeros(6), cfg16) == (0, 0)
    assert split(from_bits("101011"), cfg16) == (5, 3)


def test_split_is_injective_exhaustively():
    for w, n in ((2, 16), (3, 24), (4, 16)):
        cfg = random_cfg(6, n, w, seed=w)
        if cfg.s > 12:
            continue
        seen = {split(BitVector(cfg.s, v), cfg) for v in range(1 << cfg.s)}
        assert len(seen) == 1 << cfg.s


def test_split_length_checked(cfg16):
    with pytest.raises(DimensionError):
        split(BitVector.zeros(7), cfg16)


def test_regular_word_worked_examples(cfg16):
    # zero state: first position of each block, i.e. supports 0 and 8
    assert regular_word(BitVector.zeros(6), cfg16) == from_bits("1000000010000000")
    assert regular_word(from_bits("101011"), cfg16).support() == (5, 11)


def test_regular_word_weight_and_injectivity(cfg16):
    words = set()
    for v in range(64):
        word = regular_word(BitVector(6, v), cfg16)
        assert word.weight == 2
        words.add(word)
    assert len(words) == 64


def test_compress_equals_syndrome_of_regular_word(cfg16):
    # dual-path equivalence, exhaustive over the state space
    for v in range(64):
        x = BitVector(6, v)
        assert compress(x, cfg16) == mat_vec(cfg16.h, regular_word(x, cfg16))


def test_compress_zero_state_is_block_leader_xor(cfg16):
    cols = cfg16.h.columns()
    expected = BitVector(cfg16.r, cols[0] ^ cols[8])
    assert compress(BitVector.zeros(6), cfg16) == expected


def test_compress_output_decodes(code16):
    # every compression output is the syndrome of a weight-w word,
    # hence decodable whenever w <= t
    cfg = HashConfig(code16.h, 2)
    rng = random.Random(3)
    for _ in range(50):
        x = BitVector(6, rng.getrandbits(6))
        e = patterson_decode(code16, compress(x, cfg))
        assert e is not None and e.weight == 2


def test_md_hash_equals_compress_of_final_state(cfg16):
    rng = random.Random(4)
    for length in range(0, 12):  # every block count the padding can produce
        msg = rng.randbytes(length)
        assert md_hash(msg, cfg16) == compress(md_final_state(msg, cfg16), cfg16)
    for _ in range(100):
        msg = rng.randbytes(rng.randrange(0, 200))
        assert md_hash(msg, cfg16) == compress(md_final_state(msg, cfg16), cfg16)


def test_md_hash_across_state_sizes():
    for r, n, w, seed in ((20, 512, 16, 5), (4, 512, 2, 6), (31, 64, 8, 7)):
        cfg = random_cfg(r, n, w, seed)
        rng = random.Random(seed)
        for _ in range(30):
            msg = rng.randbytes(rng.randrange(0, 64))
            assert md_hash(msg, cfg) == compress(md_final_state(msg, cfg), cfg)
            assert md_final_state(msg, cfg).n == cfg.s
            assert md_hash(msg, cfg).n == cfg.r


def test_every_block_goes_through_the_module_compress(monkeypatch):
    """A message of k padded blocks costs md_final_state k - 1 calls of the
    module-level `compress` and md_hash k, each equal to the metered tally:
    what a wrapper of `codehash.compress` (a tracer, say) counts is every
    compression the chain makes."""
    calls = []

    def counting(x, cfg):
        calls.append(x.n)
        return compress(x, cfg)

    monkeypatch.setattr(codehash, "compress", counting)
    rng = random.Random(16)
    for r, n, w in ((12, 16, 2), (40, 1024, 4), (16, 1024, 64)):
        cfg = random_cfg(r, n, w, seed=n + w)
        for length in (0, 1, 7, 8, 9, 100, 1000):
            msg = rng.randbytes(length)
            k = len(codehash._padded_blocks(msg, cfg))
            assert k == -(-(8 * length + 65) // cfg.s)
            for fn, expected in ((md_final_state, k - 1), (md_hash, k)):
                calls.clear()
                with count_operations() as cost:
                    fn(msg, cfg)
                assert calls == [cfg.s] * expected
                assert cost.compressions == expected


def test_md_hash_deterministic_and_length_sensitive(cfg16):
    assert md_hash(b"", cfg16) == md_hash(b"", cfg16)
    # strengthened padding separates a message from its zero-extension
    assert md_hash(b"\x00", cfg16) != md_hash(b"\x00\x00", cfg16)


def test_empty_message_minimal_round_path():
    # wide enough state: empty message pads into a single block, so the
    # pipeline is one combine and one compression
    from cfslab.codehash import _padded_blocks

    cfg = random_cfg(16, 16 * 512, 16, seed=15)
    blocks = _padded_blocks(b"", cfg)
    assert len(blocks) == 1
    state = BitVector(cfg.s, blocks[0])  # the zero initial state XOR the block
    assert md_final_state(b"", cfg) == state
    assert md_hash(b"", cfg) == compress(state, cfg)


def test_final_block_bit_flips_always_move_the_state():
    # With s=144 a message of up to 9 bytes pads into a single block, so a
    # flipped message bit sits in the final block and must flip the state
    # bit for bit under the xor combine.
    cfg = random_cfg(16, 16 * 512, 16, seed=8)
    assert cfg.s == 144
    rng = random.Random(8)
    for _ in range(100):
        msg = bytearray(rng.randbytes(rng.randrange(1, 10)))
        before = md_final_state(bytes(msg), cfg)
        msg[rng.randrange(len(msg))] ^= 1 << rng.randrange(8)
        after = md_final_state(bytes(msg), cfg)
        assert after != before
        assert (after ^ before).weight == 1


def test_last_byte_flip_avalanche_rate(cfg16):
    # At s=6 the state forgets ~6 bits per round, so flips well before the
    # end can re-merge; they still move the state most of the time.
    rng = random.Random(9)
    changed = 0
    trials = 200
    for _ in range(trials):
        msg = bytearray(rng.randbytes(16))
        state = md_final_state(bytes(msg), cfg16)
        msg[-1] ^= 1 << rng.randrange(8)
        if md_final_state(bytes(msg), cfg16) != state:
            changed += 1
    assert changed > trials * 0.7


def test_digest_bits_lengths():
    for nbits in (1, 7, 12, 256, 300):
        d = digest_bits(b"abc", nbits)
        assert d.n == nbits
    assert digest_bits(b"abc", 12) != digest_bits(b"abd", 12)


def test_encoder_registry(cfg16):
    regular = make_encoder("regular", cfg16, 3)
    digits = make_encoder("digits", cfg16, 3)
    zero = make_encoder("zero", cfg16, 3)
    for v in range(64):
        x = BitVector(6, v)
        assert regular(x).weight == 2
        assert digits(x).weight <= 3
        assert zero(x).is_zero()
    with pytest.raises(BadParameters):
        make_encoder("regular", cfg16, 1)  # w=2 exceeds the bound
    with pytest.raises(BadParameters):
        make_encoder("nonsense", cfg16, 3)


def test_encoder_bound_sweep():
    # full sweep at small s, random sampling at larger s
    cfg = random_cfg(8, 64, 2, seed=9)  # s = 10
    for eid in ("regular", "digits", "zero"):
        enc = make_encoder(eid, cfg, 4)
        for v in range(1 << cfg.s):
            assert enc(BitVector(cfg.s, v)).weight <= 4
    big = random_cfg(8, 256, 4, seed=10)  # s = 24
    rng = random.Random(11)
    for eid in ("regular", "digits", "zero"):
        enc = make_encoder(eid, big, 5)
        for _ in range(10_000):
            assert enc(BitVector(big.s, rng.getrandbits(big.s))).weight <= 5


def test_syndrome_hash_reduces_to_md_hash(cfg16):
    # regular encoder + stopped chain = the full chained digest
    enc = make_encoder("regular", cfg16, 3)
    rng = random.Random(12)
    for _ in range(100):
        msg = rng.randbytes(rng.randrange(0, 60))
        via_parts = syndrome_hash(
            msg, cfg16.h, enc, lambda m: md_final_state(m, cfg16)
        )
        assert via_parts == md_hash(msg, cfg16)


def test_syndrome_hash_zero_encoder(cfg16):
    enc = make_encoder("zero", cfg16, 3)
    sh = syndrome_hash(b"anything", cfg16.h, enc, lambda m: md_final_state(m, cfg16))
    assert sh.is_zero()


def test_syndrome_hash_output_is_decodable(code16):
    cfg = HashConfig(code16.h, 2)
    rng = random.Random(13)
    for eid in ("regular", "digits"):
        enc = make_encoder(eid, cfg, 3)
        for _ in range(30):
            msg = rng.randbytes(20)
            d = syndrome_hash(msg, code16.h, enc, lambda m: digest_bits(m, cfg.s))
            assert patterson_decode(code16, d) is not None


def test_syndrome_hash_enforces_weight_bound(cfg16):
    cheat = BoundedWeightEncoder("cheat", 1, lambda x: BitVector(16, 0b111))
    with pytest.raises(WeightBoundViolation):
        syndrome_hash(b"m", cfg16.h, cheat, lambda m: md_final_state(m, cfg16))
