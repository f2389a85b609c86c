"""Unit tests for the upload bandwidth cap and throttling limiter."""

import pytest

from repro.network.bandwidth import BandwidthCap, UploadLimiter


class TestBandwidthCap:
    def test_from_kbps(self):
        cap = BandwidthCap.from_kbps(700)
        assert cap.rate_bps == pytest.approx(700_000.0)
        assert not cap.is_unlimited
        assert cap.kbps() == pytest.approx(700.0)

    def test_unlimited(self):
        cap = BandwidthCap.unlimited()
        assert cap.is_unlimited
        assert cap.max_backlog_bytes is None
        assert cap.kbps() is None

    def test_from_kbps_none_is_unlimited(self):
        assert BandwidthCap.from_kbps(None).is_unlimited

    def test_max_backlog_bytes(self):
        cap = BandwidthCap.from_kbps(800, max_backlog_seconds=2.0)
        # 800 kbps = 100 kB/s, so 2 s of backlog is 200 kB.
        assert cap.max_backlog_bytes == pytest.approx(200_000.0)

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
        assert limiter.backlog_seconds(1.5) == pytest.approx(0.5)
        assert limiter.enqueue(1000, now=1.5) is not None

    def test_backlog_bytes(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=10.0))
        limiter.enqueue(2000, now=0.0)
        assert limiter.backlog_bytes(0.0) == pytest.approx(2000.0)
        assert limiter.backlog_bytes(1.0) == pytest.approx(1000.0)
        assert limiter.backlog_bytes(100.0) == 0.0

    def test_is_saturated(self):
        limiter = UploadLimiter(BandwidthCap(rate_bps=8000.0, max_backlog_seconds=10.0))
        limiter.enqueue(8000, now=0.0)  # 8 seconds of backlog
        assert limiter.is_saturated(0.0, threshold_seconds=1.0)
        assert not limiter.is_saturated(7.5, threshold_seconds=1.0)

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
