"""End-to-end tests: a streaming session over real UDP sockets."""

import json
import socket
from dataclasses import replace

import pytest

from repro.core.session import StreamingSession
from repro.realnet.host import AsyncioHost
from repro.realnet.net import UdpNetwork
from repro.validation import validate_session
from repro.validation.observers import SessionObserver, attach_session_observer
from repro.realnet.session import (
    RealNetConfig,
    RealNetSession,
    make_run_id,
    write_delivery_log,
)

from tests.realnet.conftest import SMOKE_TIME_SCALE, realnet_session_config


class TestRealNetSession:
    def test_uses_realnet_backend(self, realnet_result):
        assert realnet_result.events_processed > 0

    def test_stream_is_delivered(self, realnet_result):
        # Localhost, no loss model, ample bandwidth: the session must
        # essentially complete (the gate leaves room for wall-clock jitter).
        assert realnet_result.delivery_ratio() >= 0.9

    def test_deliveries_are_timestamped_in_order(self, realnet_result):
        for packets in realnet_result.deliveries.raw().values():
            times = list(packets.values())
            assert all(t >= 0.0 for t in times)

    def test_traffic_stats_recorded(self, realnet_result):
        assert realnet_result.traffic.metrics_view()["net.bytes_sent"] > 0

    def test_sharded_config_rejected(self):
        config = replace(realnet_session_config(), shards=2)
        with pytest.raises(ValueError):
            RealNetSession(config)

    def test_session_builds_asyncio_host_and_udp_network(self):
        session = RealNetSession(realnet_session_config())
        session.build()
        assert isinstance(session.simulator, AsyncioHost)
        assert isinstance(session.network, UdpNetwork)


class TestDeliveryLogSchema:
    def test_sim_and_real_logs_are_schema_identical(self, realnet_result, tmp_path):
        sim_result = StreamingSession(realnet_session_config()).run()
        sim_path = tmp_path / "sim.jsonl"
        real_path = tmp_path / "real.jsonl"
        write_delivery_log(sim_result, str(sim_path))
        write_delivery_log(realnet_result, str(real_path))
        sim_records = [json.loads(line) for line in sim_path.read_text().splitlines()]
        real_records = [json.loads(line) for line in real_path.read_text().splitlines()]
        assert sim_records and real_records
        assert set(sim_records[0]) == set(real_records[0]) == {"node", "packet", "t"}

    def test_log_is_sorted_by_time(self, realnet_result, tmp_path):
        path = tmp_path / "log.jsonl"
        count = write_delivery_log(realnet_result, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == count
        times = [record["t"] for record in records]
        assert times == sorted(times)


class TestRunIdentity:
    def test_make_run_id_embeds_seed(self):
        assert make_run_id(42).endswith("-s42")

    def test_run_ids_differ_by_seed(self):
        assert make_run_id(1) != make_run_id(2)


class TestRealNetConfig:
    def test_rejects_nonpositive_time_scale(self):
        with pytest.raises(ValueError):
            RealNetConfig(time_scale=0.0)

    def test_port_plan_carries_knobs(self):
        plan = RealNetConfig(bind_host="127.0.0.1", base_port=40000).port_plan()
        assert plan.base_port == 40000


class TestTelemetryIntegration:
    def test_trace_records_and_validates(self, tmp_path):
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.schema import validate_trace

        trace_path = tmp_path / "trace.jsonl"
        config = replace(
            realnet_session_config(num_nodes=6, num_windows=2),
            telemetry=TelemetryConfig(trace_path=str(trace_path)),
        )
        result = RealNetSession(config, RealNetConfig(time_scale=SMOKE_TIME_SCALE)).run()
        assert result.delivery_ratio() > 0.0
        header, count = validate_trace(trace_path)
        assert header.meta.get("backend") == "realnet-asyncio"
        assert count > 0


class _RaiseOnDelivery(SessionObserver):
    def on_delivered(self, message, now):
        raise RuntimeError(f"observer failed on datagram ({message.sender}, {message.seq})")


class TestFailuresEndTheRun:
    def test_a_raising_datagram_callback_ends_the_run_and_frees_every_port(self):
        session = RealNetSession(
            realnet_session_config(num_nodes=4, num_windows=1),
            RealNetConfig(time_scale=SMOKE_TIME_SCALE),
        )
        session.build()
        attach_session_observer(session, _RaiseOnDelivery())
        addresses = [session.network.address(node_id) for node_id in range(4)]
        with pytest.raises(RuntimeError, match="observer failed on datagram"):
            session.run()
        for address in addresses:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.bind(address)


class TestInvariantsOnRealNet:
    def test_every_default_invariant_holds_on_a_smoke_session(self):
        session = RealNetSession(
            realnet_session_config(num_nodes=6, num_windows=2),
            RealNetConfig(time_scale=SMOKE_TIME_SCALE),
        )
        result = validate_session(session)
        assert result.delivery_ratio() > 0.0
