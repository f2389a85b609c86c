"""Unit tests for the delivery log."""

from repro.metrics.delivery import DeliveryLog
from repro.streaming.schedule import StreamConfig, StreamSchedule

SCHEDULE = StreamSchedule(StreamConfig.scaled_down())


class TestDeliveryLog:
    def test_record_and_query(self):
        log = DeliveryLog(SCHEDULE)
        log.record(1, 10, 2.5)
        assert log.raw() == {1: {10: 2.5}}
        assert log.packets_delivered(1) == 1
        assert log.total_deliveries == 1

    def test_duplicate_records_ignored(self):
        log = DeliveryLog(SCHEDULE)
        log.record(1, 10, 2.5)
        log.record(1, 10, 9.9)
        assert log.raw() == {1: {10: 2.5}}
        assert log.total_deliveries == 1

    def test_callable_interface(self):
        log = DeliveryLog(SCHEDULE)
        log(2, 5, 1.0)
        assert log.raw() == {2: {5: 1.0}}

    def test_unknown_queries_return_empty_or_zero(self):
        log = DeliveryLog(SCHEDULE)
        assert log.raw() == {}
        assert log.packets_delivered(1) == 0

    def test_nodes_listing(self):
        log = DeliveryLog(SCHEDULE)
        log.record(1, 0, 0.0)
        log.record(3, 0, 0.0)
        assert set(log.raw()) == {1, 3}

    def test_raw_reflects_all_entries(self):
        log = DeliveryLog(SCHEDULE)
        for node in range(3):
            for packet in range(4):
                log.record(node, packet, node + packet * 0.1)
        raw = log.raw()
        assert len(raw) == 3
        assert all(len(per_node) == 4 for per_node in raw.values())
