"""One datagram name on every substrate.

A datagram is named ``(snd, d)``: its sender and that sender's send count at
acceptance (``Message.seq``).  The name is stamped by the transport and
carried by the shard wire and the UDP codec, so the datagram lines of a
sharded run — split over one trace per shard — are exactly the scalar
run's, and a real-network trace links every fate to its send.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.session import StreamingSession
from repro.experiments.scale import SMOKE
from repro.membership.churn import CatastrophicChurn
from repro.realnet.session import RealNetConfig, RealNetSession
from repro.shard import run_sharded
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.schema import iter_events, validate_trace

from tests.realnet.conftest import SMOKE_TIME_SCALE, realnet_session_config

DATAGRAM_KINDS = ("send", "loss", "deliver_msg", "drop_dead")
SHARDS = 2


def lossy_churned_config(trace_path):
    scale = dataclasses.replace(
        SMOKE, seed=5, num_nodes=12, num_windows=2, fanout_grid=(7,), optimal_fanout=7,
        random_loss=0.05, extra_time=3.0,
    )
    config = scale.session_config()
    return dataclasses.replace(
        config,
        shards=SHARDS,
        churn=CatastrophicChurn(time=config.stream.duration / 2.0, fraction=0.3),
        telemetry=TelemetryConfig(trace_path=str(trace_path)),
    )


def datagram_lines(*paths):
    """Every datagram line of the traces as ``(k, t, snd, rcv, mk, sz, d)``, counted."""
    lines = Counter()
    for path in paths:
        validate_trace(path)  # the link rules, per trace
        for event in iter_events(path):
            if event["k"] in DATAGRAM_KINDS:
                lines[tuple(event[key] for key in ("k", "t", "snd", "rcv", "mk", "sz", "d"))] += 1
    return lines


@pytest.fixture(scope="module")
def scalar_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("scalar") / "t.jsonl"
    StreamingSession(lossy_churned_config(path)).run()
    lines = datagram_lines(path)
    kinds = Counter(line[0] for line in lines.elements())
    assert all(kinds[kind] for kind in DATAGRAM_KINDS), f"every fate is exercised: {kinds}"
    return lines


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_shard_traces_hold_exactly_the_scalar_datagram_lines(mode, scalar_lines, tmp_path):
    path = tmp_path / "t.jsonl"
    run_sharded(lossy_churned_config(path), mode=mode)
    shard_paths = [f"{path}.shard{shard}" for shard in range(SHARDS)]
    assert datagram_lines(*shard_paths) == scalar_lines


def test_every_real_network_fate_links_to_one_send(tmp_path):
    path = tmp_path / "t.jsonl"
    config = dataclasses.replace(
        realnet_session_config(num_nodes=6, num_windows=2),
        telemetry=TelemetryConfig(trace_path=str(path)),
    )
    RealNetSession(config, RealNetConfig(time_scale=SMOKE_TIME_SCALE)).run()
    lines = datagram_lines(path)
    fates = [line for line in lines.elements() if line[0] != "send"]
    assert fates and all(line[6] >= 1 for line in fates)
