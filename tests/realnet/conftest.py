"""Shared fixtures for the real-network backend tests.

Real sessions burn wall clock (a 6-virtual-second run at ``time_scale``
0.25 is ~1.5 s of real time), so the end-to-end fixtures are module-scoped
and sized to the smallest scenario that still exercises the full pipeline.
"""

from __future__ import annotations

import struct

import pytest

from repro.core.config import GossipConfig
from repro.core.session import SessionConfig, SessionResult
from repro.network.transport import NetworkConfig
from repro.realnet.codec import VERSION
from repro.realnet.session import RealNetConfig, RealNetSession
from repro.streaming.schedule import StreamConfig

# Fast-but-faithful wall clock: 4x real time keeps the 200 ms gossip period
# well above OS timer resolution (see AsyncioHost's time_scale guidance).
SMOKE_TIME_SCALE = 0.25


def realnet_session_config(num_nodes: int = 8, seed: int = 7, num_windows: int = 3) -> SessionConfig:
    """A real-network session small enough for the test suite."""
    return SessionConfig(
        num_nodes=num_nodes,
        seed=seed,
        gossip=GossipConfig(fanout=5, refresh_every=1.0, retransmit_timeout=2.0),
        stream=StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=20,
            fec_packets_per_window=2,
            num_windows=num_windows,
        ),
        network=NetworkConfig(upload_cap_kbps=700.0, max_backlog_seconds=10.0),
        extra_time=5.0,
    )


def retired_datagrams() -> dict:
    """Well-framed datagrams of payload shapes the codec no longer carries.

    Tag 4 framed a SERVE with content bytes (packet id, size, an empty
    blob) and tag 5 a FEED_ME naming its requester, both in the current
    header version; version 3 is the header a SERVE carried its packet id
    and size under.
    """

    def datagram(version: int, tag: int, *scalars: int) -> bytes:
        head = struct.pack("!2sBBIIIIB", b"RN", version, tag, 0, 1, 0, 64, 5)
        return (head + b"serve" + struct.pack(f"!{len(scalars)}I", *scalars)).ljust(64, b"\0")

    return {
        "tag-4": datagram(VERSION, 4, 7, 1200, 0),
        "tag-5": datagram(VERSION, 5, 8),
        "version-3": datagram(3, 3, 7, 1200),
    }


@pytest.fixture(scope="module")
def realnet_result() -> SessionResult:
    """One completed 8-node real-network session, shared per test module."""
    config = realnet_session_config()
    return RealNetSession(config, RealNetConfig(time_scale=SMOKE_TIME_SCALE)).run()
