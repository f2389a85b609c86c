"""Property-based tests for the upload limiter and traffic accounting."""

from hypothesis import given, settings, strategies as st

from repro.network.bandwidth import BandwidthCap, UploadLimiter

message_sizes = st.lists(st.integers(min_value=1, max_value=20_000), min_size=1, max_size=60)
gaps = st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=1, max_size=60)


class TestUploadLimiterProperties:
    @given(message_sizes, gaps, st.floats(min_value=50.0, max_value=5000.0))
    @settings(deadline=None)
    def test_finish_times_never_decrease(self, sizes, gaps_between, cap_kbps):
        limiter = UploadLimiter(BandwidthCap.from_kbps(cap_kbps, max_backlog_seconds=30.0))
        now = 0.0
        last_finish = 0.0
        for size, gap in zip(sizes, gaps_between):
            now += gap
            finish = limiter.enqueue(size, now)
            if finish is not None:
                assert finish >= now
                assert finish >= last_finish
                last_finish = finish

    @given(message_sizes, st.floats(min_value=50.0, max_value=5000.0))
    @settings(deadline=None)
    def test_backlog_never_exceeds_configured_capacity(self, sizes, cap_kbps):
        cap = BandwidthCap.from_kbps(cap_kbps, max_backlog_seconds=5.0)
        limiter = UploadLimiter(cap)
        for size in sizes:
            finish = limiter.enqueue(size, now=0.0)
            assert finish is None or finish <= cap.max_backlog_seconds + 1e-9

    @given(message_sizes, st.floats(min_value=50.0, max_value=5000.0))
    @settings(deadline=None)
    def test_accounting_is_conserved(self, sizes, cap_kbps):
        limiter = UploadLimiter(BandwidthCap.from_kbps(cap_kbps, max_backlog_seconds=2.0))
        for size in sizes:
            limiter.enqueue(size, now=0.0)
        assert limiter.bytes_accepted + limiter.bytes_dropped == sum(sizes)
        assert limiter.messages_accepted + limiter.messages_dropped == len(sizes)

    @given(message_sizes)
    @settings(deadline=None)
    def test_unlimited_cap_never_drops_or_delays(self, sizes):
        limiter = UploadLimiter(BandwidthCap.unlimited())
        for index, size in enumerate(sizes):
            finish = limiter.enqueue(size, now=float(index))
            assert finish == float(index)
        assert limiter.messages_dropped == 0

    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=50.0, max_value=5000.0),
        st.floats(min_value=0.5, max_value=20.0),
    )
    @settings(deadline=None)
    def test_serialization_time_matches_rate_exactly(self, size, cap_kbps, start):
        limiter = UploadLimiter(BandwidthCap.from_kbps(cap_kbps, max_backlog_seconds=100.0))
        finish = limiter.enqueue(size, now=start)
        expected = start + size * 8.0 / (cap_kbps * 1000.0)
        assert abs(finish - expected) < 1e-9
