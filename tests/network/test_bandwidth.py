"""Unit tests for the upload bandwidth cap and throttling limiter."""

import pytest

from repro.network.bandwidth import BandwidthCap, UploadLimiter


class TestBandwidthCap:
    def test_from_kbps(self):
        cap = BandwidthCap.from_kbps(700)
        assert cap.rate_bps == pytest.approx(700_000.0)

    def test_unlimited(self):
        assert BandwidthCap.unlimited().rate_bps is None

    def test_from_kbps_none_is_unlimited(self):
        assert BandwidthCap.from_kbps(None).rate_bps is None

    def test_max_backlog_bytes(self):
        limiter = UploadLimiter(BandwidthCap.from_kbps(800, max_backlog_seconds=2.0))
        # 800 kbps = 100 kB/s, so 2 s of backlog is 200 kB.
        assert limiter.enqueue(200_000, now=0.0) == pytest.approx(2.0)
        assert limiter.enqueue(1, now=0.0) is None

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthCap(rate_bps=0.0)

    def test_invalid_backlog_rejected(self):
        with pytest.raises(ValueError):
            BandwidthCap(rate_bps=1000.0, max_backlog_seconds=0.0)


class TestUploadLimiter:
    def test_unlimited_cap_has_no_delay(self):
        limiter = UploadLimiter(BandwidthCap.unlimited())
        finish = limiter.enqueue(10_000, now=5.0)
        assert finish == pytest.approx(5.0)
        assert limiter.bytes_accepted == 10_000

    def test_unlimited_cap_counts_every_datagram(self):
        limiter = UploadLimiter(BandwidthCap.unlimited())
        for size in (100, 200, 300):
            assert limiter.enqueue(size, now=1.0) == 1.0
        assert (limiter.messages_accepted, limiter.bytes_accepted) == (3, 600)
        assert (limiter.messages_dropped, limiter.bytes_dropped) == (0, 0)

    def test_serialization_delay_matches_rate(self):
        # 1000 bytes at 8000 bps take exactly 1 second to serialize.
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=100.0))
        finish = limiter.enqueue(1000, now=0.0)
        assert finish == pytest.approx(1.0)

    def test_back_to_back_messages_queue_behind_each_other(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=100.0))
        first = limiter.enqueue(1000, now=0.0)
        second = limiter.enqueue(1000, now=0.0)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_time_is_not_accumulated(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=100.0))
        limiter.enqueue(1000, now=0.0)
        # Waiting far beyond the busy period: the next message starts fresh.
        finish = limiter.enqueue(1000, now=10.0)
        assert finish == pytest.approx(11.0)

    def test_backlog_overflow_drops(self):
        # Backlog capacity of 2 seconds at 8000 bps = 2000 bytes.
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=2.0))
        assert limiter.enqueue(1000, now=0.0) is not None
        assert limiter.enqueue(1000, now=0.0) is not None
        assert limiter.enqueue(1000, now=0.0) is None
        assert limiter.messages_dropped == 1
        assert limiter.bytes_dropped == 1000

    def test_backlog_drains_over_time(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=2.0))
        limiter.enqueue(1000, now=0.0)
        limiter.enqueue(1000, now=0.0)
        # At t=1.5 s, half of the second message remains: 0.5 s of backlog.
        assert limiter.enqueue(1000, now=1.5) == pytest.approx(3.0)

    def test_queued_bytes_count_against_the_backlog(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=10.0))
        limiter.enqueue(2000, now=0.0)
        # At t=1 s, 1000 bytes (1 s) are still queued: 9 s of room remain.
        assert limiter.enqueue(9001, now=1.0) is None
        assert limiter.enqueue(9000, now=1.0) == pytest.approx(11.0)
        assert limiter.enqueue(1000, now=100.0) == pytest.approx(101.0)

    def test_counters_accumulate(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=1.0))
        limiter.enqueue(500, now=0.0)
        limiter.enqueue(400, now=0.0)
        limiter.enqueue(5000, now=0.0)  # dropped: exceeds 1 s of backlog
        assert limiter.messages_accepted == 2
        assert limiter.bytes_accepted == 900
        assert limiter.messages_dropped == 1

    def test_invalid_size_rejected(self):
        limiter = UploadLimiter(BandwidthCap.unlimited())
        with pytest.raises(ValueError):
            limiter.enqueue(0, now=0.0)
