"""Unit tests for the Cauchy Reed-Solomon erasure codec."""

import random

import pytest

from repro.streaming.fec import ReedSolomonCode, WindowCodec


def random_shards(count: int, length: int, seed: int = 1) -> list:
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(length)) for _ in range(count)]


class TestReedSolomonCode:
    def test_encode_produces_parity_shards(self):
        code = ReedSolomonCode(data_shards=4, parity_shards=2)
        data = random_shards(4, 16)
        parity = code.encode(data)
        assert len(parity) == 2
        assert all(len(shard) == 16 for shard in parity)

    def test_all_data_shards_decode_trivially(self):
        code = ReedSolomonCode(4, 2)
        data = random_shards(4, 8)
        shards = {index: shard for index, shard in enumerate(data)}
        assert code.decode(shards) == data

    def test_recovery_from_any_k_shards(self):
        code = ReedSolomonCode(5, 3)
        data = random_shards(5, 32, seed=3)
        codeword = code.encode_window(data)
        # Try every combination of 3 erasures (keep exactly k=5 shards).
        import itertools

        for erased in itertools.combinations(range(8), 3):
            kept = {i: codeword[i] for i in range(8) if i not in erased}
            assert code.decode(kept) == data

    def test_too_few_shards_rejected(self):
        code = ReedSolomonCode(4, 2)
        data = random_shards(4, 8)
        codeword = code.encode_window(data)
        with pytest.raises(ValueError):
            code.decode({0: codeword[0], 1: codeword[1], 2: codeword[2]})

    def test_mismatched_lengths_rejected(self):
        code = ReedSolomonCode(2, 1)
        with pytest.raises(ValueError):
            code.encode([b"abcd", b"ab"])

    def test_bad_shard_index_rejected(self):
        code = ReedSolomonCode(2, 1)
        data = random_shards(2, 4)
        codeword = code.encode_window(data)
        with pytest.raises(ValueError):
            code.decode({0: codeword[0], 5: codeword[1]})

    def test_reencoding_decoded_data_restores_parity_too(self):
        code = ReedSolomonCode(4, 2)
        data = random_shards(4, 8, seed=9)
        codeword = code.encode_window(data)
        kept = {i: codeword[i] for i in (0, 2, 4, 5)}
        assert code.encode_window(code.decode(kept)) == codeword

    def test_zero_parity_code(self):
        code = ReedSolomonCode(3, 0)
        data = random_shards(3, 4)
        assert code.encode(data) == []
        assert code.encode_window(data) == data

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(200, 100)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCode(2, -1)

    def test_paper_window_dimensions_roundtrip(self):
        """The paper's 101+9 window: any 101 of 110 packets reconstruct."""
        code = ReedSolomonCode(101, 9)
        data = random_shards(101, 48, seed=11)
        codeword = code.encode_window(data)
        rng = random.Random(5)
        erased = set(rng.sample(range(110), 9))
        kept = {i: codeword[i] for i in range(110) if i not in erased}
        assert code.decode(kept) == data


class TestWindowCodec:
    def test_window_properties(self):
        codec = WindowCodec(source_packets=101, fec_packets=9)
        assert codec.window_size == 110
        assert codec.required_packets == 101
        assert codec.loss_tolerance() == 9

    def test_can_decode_counting_rule(self):
        codec = WindowCodec(source_packets=20, fec_packets=2)
        assert codec.can_decode(20)
        assert codec.can_decode(22)
        assert not codec.can_decode(19)

    def test_encode_decode_window(self):
        codec = WindowCodec(source_packets=6, fec_packets=2)
        data = random_shards(6, 10, seed=2)
        payloads = codec.encode_window(data)
        assert len(payloads) == 8
        received = {i: payloads[i] for i in (0, 1, 3, 4, 6, 7)}
        assert codec.decode_window(received) == data
