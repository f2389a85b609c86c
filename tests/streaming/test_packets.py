"""Unit tests for packet and window descriptors."""

import pytest

from repro.streaming.packets import PacketDescriptor, WindowDescriptor


class TestPacketDescriptor:
    def test_valid_descriptor(self):
        packet = PacketDescriptor(
            packet_id=5, window_index=0, index_in_window=5,
            publish_time=0.5, size_bytes=1000,
        )
        assert packet.packet_id == 5

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            PacketDescriptor(
                packet_id=-1, window_index=0, index_in_window=0,
                publish_time=0.0, size_bytes=1000,
            )

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PacketDescriptor(
                packet_id=0, window_index=0, index_in_window=0,
                publish_time=0.0, size_bytes=0,
            )

    def test_negative_publish_time_rejected(self):
        with pytest.raises(ValueError):
            PacketDescriptor(
                packet_id=0, window_index=0, index_in_window=0,
                publish_time=-0.1, size_bytes=10,
            )


class TestWindowDescriptor:
    def make(self, **overrides):
        defaults = dict(
            window_index=0,
            packet_ids=tuple(range(10)),
            required_packets=8,
            publish_start=0.0,
            publish_end=1.0,
        )
        defaults.update(overrides)
        return WindowDescriptor(**defaults)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            self.make(packet_ids=())

    def test_required_exceeding_size_rejected(self):
        with pytest.raises(ValueError):
            self.make(required_packets=11)

    def test_zero_required_rejected(self):
        with pytest.raises(ValueError):
            self.make(required_packets=0)

    def test_window_without_parity_needs_every_packet(self):
        window = self.make(required_packets=10)
        assert window.required_packets == len(window.packet_ids)

    def test_publish_bounds_checked(self):
        with pytest.raises(ValueError):
            self.make(publish_start=2.0, publish_end=1.0)
