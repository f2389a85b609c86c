"""Pin the bulk (translate-table) codec path against the scalar reference.

The fast path — ``Matrix.multiply_vector_bytes`` over the per-coefficient
``bytes.translate`` tables — must agree byte-for-byte with the original
scalar functions (``multiply`` / ``multiply_accumulate`` /
``Matrix.multiply_vector_rows``) that the seed codec was built from, and
the whole RS codec must round-trip
encode → erase → decode at the paper's real window geometry (101 + 9).

All sampling is fixed-seed so failures reproduce exactly.
"""

import random

import pytest

from repro.streaming import gf256
from repro.streaming.fec import ReedSolomonCode, WindowCodec, reference_decode, reference_encode
from repro.streaming.gf256 import Matrix


def sampled_triples(seed, count=200):
    rng = random.Random(seed)
    return [(rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(count)]


class TestFieldAxiomsSampled:
    """Field axioms over fixed-seed sampled triples (fast, non-hypothesis)."""

    def test_multiplication_associative_and_commutative(self):
        for a, b, c in sampled_triples(seed=1):
            assert gf256.multiply(gf256.multiply(a, b), c) == gf256.multiply(a, gf256.multiply(b, c))
            assert gf256.multiply(a, b) == gf256.multiply(b, a)

    def test_distributivity(self):
        for a, b, c in sampled_triples(seed=2):
            left = gf256.multiply(a, gf256.add(b, c))
            right = gf256.add(gf256.multiply(a, b), gf256.multiply(a, c))
            assert left == right

    def test_inverse_round_trips(self):
        for a, b, _ in sampled_triples(seed=3):
            if a:
                assert gf256.multiply(a, gf256.inverse(a)) == 1
                assert gf256.divide(gf256.multiply(a, b), a) == b
            assert gf256.multiply(a, 0) == 0


class TestBulkMatchesScalar:
    def test_every_coefficient_scales_like_scalar_multiply(self):
        every_byte = bytes(range(256))
        for coefficient in range(256):
            (scaled,) = Matrix([[coefficient]]).multiply_vector_bytes([every_byte])
            assert list(scaled) == [gf256.multiply(coefficient, x) for x in range(256)]

    def test_multiply_vector_bytes_matches_scalar_rows(self):
        rng = random.Random(14)
        for _ in range(20):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            length = rng.randrange(1, 40)
            matrix = Matrix([[rng.randrange(256) for _ in range(cols)] for _ in range(rows)])
            data = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(cols)]
            scalar = matrix.multiply_vector_rows([list(shard) for shard in data])
            bulk = matrix.multiply_vector_bytes(data)
            assert [list(shard) for shard in bulk] == scalar

    def test_multiply_vector_bytes_validates_shapes(self):
        matrix = Matrix([[1, 2]])
        with pytest.raises(ValueError):
            matrix.multiply_vector_bytes([b"a"])
        with pytest.raises(ValueError):
            matrix.multiply_vector_bytes([b"a", b"bc"])


class TestPaperGeometryRoundTrips:
    """RS encode → erase → decode at the paper's 101+9 window layout."""

    @pytest.mark.parametrize("source,fec", [(101, 9), (20, 2)])
    def test_round_trips_at_and_below_the_erasure_limit(self, source, fec):
        rng = random.Random(1000 * source + fec)
        codec = WindowCodec(source, fec)
        shard_length = 32  # shorter than the wire's 1000 bytes, same math
        data = [
            bytes(rng.randrange(256) for _ in range(shard_length)) for _ in range(source)
        ]
        codeword = codec.encode_window(data)
        assert len(codeword) == source + fec
        for erasures in sorted({0, 1, fec // 2, fec}):
            erased = set(rng.sample(range(len(codeword)), erasures))
            received = {
                index: shard for index, shard in enumerate(codeword) if index not in erased
            }
            assert codec.decode_window(received) == data

    def test_random_erasure_patterns_paper_window(self):
        rng = random.Random(99)
        code = ReedSolomonCode(101, 9)
        data = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(101)]
        codeword = code.encode_window(data)
        for _ in range(5):
            erased = set(rng.sample(range(110), 9))
            received = {i: s for i, s in enumerate(codeword) if i not in erased}
            assert code.decode(received) == data

    def test_beyond_limit_fails_loudly(self):
        rng = random.Random(7)
        code = ReedSolomonCode(20, 2)
        data = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(20)]
        codeword = code.encode_window(data)
        received = {i: s for i, s in enumerate(codeword) if i >= 3}  # 3 erasures > m=2
        with pytest.raises(ValueError):
            code.decode(received)

    def test_parity_only_systematic_prefix(self):
        """Decoding from a mix heavy in parity shards still recovers the data."""
        rng = random.Random(8)
        code = ReedSolomonCode(6, 3)
        data = [bytes(rng.randrange(256) for _ in range(12)) for _ in range(6)]
        codeword = code.encode_window(data)
        received = {i: codeword[i] for i in (0, 3, 5, 6, 7, 8)}
        assert code.decode(received) == data


class TestScalarReferenceCodec:
    """The codec against ``reference_encode`` / ``reference_decode``.

    The references are the seed's byte-at-a-time codec; the
    ``large-session`` benchmark times the codec against them and requires
    identical output, so they must stay byte-identical here too.
    """

    @staticmethod
    def _data(rng, data_shards, length):
        return [bytes(rng.randrange(256) for _ in range(length)) for _ in range(data_shards)]

    @pytest.mark.parametrize("data_shards,parity_shards", [(4, 2), (20, 2), (101, 9)])
    def test_encode_and_decode_match_the_reference(self, data_shards, parity_shards):
        rng = random.Random(data_shards * 100 + parity_shards)
        code = ReedSolomonCode(data_shards, parity_shards)
        data = self._data(rng, data_shards, 24)
        parity = code.encode(data)
        assert reference_encode(code, data) == parity
        codeword = list(data) + parity
        for _ in range(4):
            erased = set(rng.sample(range(code.total_shards), parity_shards))
            received = {i: s for i, s in enumerate(codeword) if i not in erased}
            assert reference_decode(code, received) == code.decode(received) == data

    def test_reference_decode_of_intact_data_shards_is_the_data(self):
        code = ReedSolomonCode(3, 2)
        data = self._data(random.Random(41), 3, 8)
        received = dict(enumerate(data + code.encode(data)))
        assert reference_decode(code, received) == data

    def test_zero_parity_reference_encode_is_empty(self):
        code = ReedSolomonCode(3, 0)
        assert reference_encode(code, self._data(random.Random(42), 3, 8)) == []

    def test_references_reject_what_the_codec_rejects(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(ValueError, match="expected 4 data shards"):
            reference_encode(code, [b"ab"] * 3)
        with pytest.raises(ValueError, match="same length"):
            reference_encode(code, [b"ab", b"ab", b"ab", b"a"])
        with pytest.raises(ValueError, match="need at least 4 shards"):
            reference_decode(code, {0: b"ab", 1: b"ab", 5: b"ab"})
