"""Property-based tests: the erasure code recovers from any tolerable loss."""

import random

from hypothesis import given, settings, strategies as st

from repro.streaming.fec import ReedSolomonCode


@st.composite
def code_and_data(draw):
    """A small RS code plus random data shards and a random erasure pattern."""
    data_shards = draw(st.integers(min_value=1, max_value=8))
    parity_shards = draw(st.integers(min_value=0, max_value=4))
    shard_length = draw(st.integers(min_value=1, max_value=24))
    data = [
        bytes(draw(st.lists(st.integers(0, 255), min_size=shard_length, max_size=shard_length)))
        for _ in range(data_shards)
    ]
    erasure_count = draw(st.integers(min_value=0, max_value=parity_shards))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return data_shards, parity_shards, data, erasure_count, seed


class TestErasureRecovery:
    @given(code_and_data())
    @settings(max_examples=60, deadline=None)
    def test_decoding_recovers_data_after_tolerable_erasures(self, example):
        data_shards, parity_shards, data, erasure_count, seed = example
        code = ReedSolomonCode(data_shards, parity_shards)
        codeword = code.encode_window(data)
        erased = set(random.Random(seed).sample(range(len(codeword)), erasure_count))
        received = {i: shard for i, shard in enumerate(codeword) if i not in erased}
        assert code.decode(received) == data

    @given(code_and_data())
    @settings(max_examples=40, deadline=None)
    def test_parity_shards_have_data_shard_length(self, example):
        data_shards, parity_shards, data, __, ___ = example
        code = ReedSolomonCode(data_shards, parity_shards)
        parity = code.encode(data)
        assert len(parity) == parity_shards
        assert all(len(shard) == len(data[0]) for shard in parity)

    @given(code_and_data())
    @settings(max_examples=40, deadline=None)
    def test_encoding_is_deterministic(self, example):
        data_shards, parity_shards, data, __, ___ = example
        first = ReedSolomonCode(data_shards, parity_shards).encode(data)
        second = ReedSolomonCode(data_shards, parity_shards).encode(data)
        assert first == second

    @given(code_and_data())
    @settings(max_examples=40, deadline=None)
    def test_reencoding_decoded_data_reproduces_codeword(self, example):
        data_shards, parity_shards, data, erasure_count, seed = example
        code = ReedSolomonCode(data_shards, parity_shards)
        codeword = code.encode_window(data)
        erased = set(random.Random(seed).sample(range(len(codeword)), erasure_count))
        received = {i: shard for i, shard in enumerate(codeword) if i not in erased}
        assert code.encode_window(code.decode(received)) == codeword
