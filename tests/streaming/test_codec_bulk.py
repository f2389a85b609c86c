"""Pin the bulk (translate-table) codec path against the scalar reference.

The fast path — ``scale_bytes`` / ``xor_bytes`` / ``addmul_bytes`` /
``Matrix.multiply_vector_bytes`` — must agree byte-for-byte with the
original scalar functions (``multiply_row`` / ``add_rows`` /
``multiply_accumulate`` / ``Matrix.multiply_vector_rows``) that the seed
codec was built from, and the whole RS codec must round-trip
encode → erase → decode at the paper's real window geometry (101 + 9).

All sampling is fixed-seed so failures reproduce exactly.
"""

import random

import pytest

from repro.streaming import gf256
from repro.streaming.fec import ReedSolomonCode, WindowCodec
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
    def test_mul_table_matches_scalar_multiply(self):
        for coefficient in range(256):
            table = gf256.mul_table(coefficient)
            assert list(table) == [gf256.multiply(coefficient, x) for x in range(256)]

    def test_scale_bytes_matches_multiply_row(self):
        rng = random.Random(11)
        for _ in range(50):
            coefficient = rng.randrange(256)
            row = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            assert list(gf256.scale_bytes(coefficient, row)) == gf256.multiply_row(coefficient, list(row))

    def test_xor_bytes_matches_add_rows(self):
        rng = random.Random(12)
        for _ in range(50):
            length = rng.randrange(0, 64)
            a = bytes(rng.randrange(256) for _ in range(length))
            b = bytes(rng.randrange(256) for _ in range(length))
            assert list(gf256.xor_bytes(a, b)) == [x ^ y for x, y in zip(a, b)]

    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            gf256.xor_bytes(b"ab", b"a")

    def test_addmul_bytes_matches_multiply_accumulate(self):
        rng = random.Random(13)
        for _ in range(50):
            length = rng.randrange(1, 64)
            coefficient = rng.randrange(256)
            target_scalar = [rng.randrange(256) for _ in range(length)]
            row = bytes(rng.randrange(256) for _ in range(length))
            target_bulk = bytearray(target_scalar)
            gf256.multiply_accumulate(target_scalar, coefficient, list(row))
            gf256.addmul_bytes(target_bulk, coefficient, row)
            assert list(target_bulk) == target_scalar

    def test_addmul_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            gf256.addmul_bytes(bytearray(3), 5, b"ab")

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


class TestEncodeBatch:
    """Multi-window batched encode: one stacked matrix pass, byte-identical
    to encoding each window on its own."""

    @staticmethod
    def _windows(rng, count, data_shards, length):
        return [
            [bytes(rng.randrange(256) for _ in range(length)) for _ in range(data_shards)]
            for _ in range(count)
        ]

    def test_batch_matches_per_window_encode(self):
        rng = random.Random(31)
        for count, k, m, length in [(1, 4, 2, 16), (6, 9, 3, 40), (3, 101, 9, 64)]:
            code = ReedSolomonCode(k, m)
            windows = self._windows(rng, count, k, length)
            assert code.encode_batch(windows) == [code.encode(w) for w in windows]

    def test_empty_batch_and_zero_parity(self):
        code = ReedSolomonCode(3, 0)
        assert code.encode_batch([]) == []
        rng = random.Random(32)
        windows = self._windows(rng, 4, 3, 8)
        assert code.encode_batch(windows) == [[], [], [], []]

    def test_mixed_lengths_fall_back_per_window(self):
        rng = random.Random(33)
        code = ReedSolomonCode(4, 2)
        windows = self._windows(rng, 2, 4, 10) + self._windows(rng, 2, 4, 24)
        assert code.encode_batch(windows) == [code.encode(w) for w in windows]

    def test_bad_window_is_rejected_before_any_work(self):
        rng = random.Random(34)
        code = ReedSolomonCode(4, 2)
        windows = self._windows(rng, 2, 4, 10)
        windows.append(windows[0][:3])  # wrong shard count
        with pytest.raises(ValueError, match="expected 4 data shards"):
            code.encode_batch(windows)
