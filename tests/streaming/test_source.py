"""Unit tests for the stream emitter."""

import pytest

from repro.streaming.schedule import StreamConfig, StreamSchedule
from repro.streaming.source import StreamEmitter


@pytest.fixture
def schedule() -> StreamSchedule:
    return StreamSchedule(
        StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=5,
            fec_packets_per_window=1,
            num_windows=2,
        )
    )


class TestStreamEmitter:
    def test_publishes_every_packet_at_its_time(self, simulator, schedule):
        published = []
        emitter = StreamEmitter(simulator, schedule, lambda d: published.append((d.packet_id, simulator.now)))
        emitter.start()
        simulator.run_until_idle()
        assert len(published) == schedule.num_packets
        for packet_id, time in published:
            assert time == pytest.approx(schedule.packet(packet_id).publish_time)

    def test_publish_order_matches_packet_ids(self, simulator, schedule):
        published = []
        emitter = StreamEmitter(simulator, schedule, lambda d: published.append(d.packet_id))
        emitter.start()
        simulator.run_until_idle()
        assert published == list(range(schedule.num_packets))

    def test_double_start_rejected(self, simulator, schedule):
        emitter = StreamEmitter(simulator, schedule, lambda d: None)
        emitter.start()
        with pytest.raises(RuntimeError):
            emitter.start()

    def test_publishes_only_what_is_due(self, simulator, schedule):
        published = []
        emitter = StreamEmitter(simulator, schedule, lambda d: published.append(d.packet_id))
        emitter.start()
        simulator.run(until=schedule.config.packet_interval * 2.5)
        assert published == [0, 1, 2]


class TestPublishInstants:
    """Exact counts at every publish instant of a paper-ratio schedule.

    The paper's 75-packets/s interval (1/75 s) is not float-representable,
    so a count derived from ``elapsed / interval`` misses some instants by
    an ulp.  The emitter schedules each packet at its descriptor's own
    ``publish_time``, so running up to that instant always includes it.
    """

    def test_count_at_every_publish_instant_includes_that_packet(self, simulator):
        schedule = StreamSchedule(StreamConfig.paper_defaults(num_windows=2))
        published = []
        emitter = StreamEmitter(simulator, schedule, published.append)
        emitter.start()
        for descriptor in schedule.packets():
            simulator.run(until=descriptor.publish_time)
            assert len(published) == descriptor.packet_id + 1, (
                f"packet {descriptor.packet_id} published at "
                f"t={descriptor.publish_time!r} must count itself"
            )
        assert published == schedule.packets()

    def test_count_just_before_each_publish_instant_excludes_that_packet(self, simulator):
        schedule = StreamSchedule(StreamConfig.paper_defaults(num_windows=2))
        half_interval = schedule.config.packet_interval / 2.0
        published = []
        emitter = StreamEmitter(simulator, schedule, published.append)
        emitter.start()
        for descriptor in schedule.packets():
            simulator.run(until=descriptor.publish_time - half_interval)
            assert len(published) == descriptor.packet_id
            simulator.run(until=descriptor.publish_time)
