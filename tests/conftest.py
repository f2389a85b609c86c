"""Shared fixtures for the test suite.

The expensive fixtures (full streaming sessions) are session-scoped so that
integration and metric tests share one simulation instead of re-running it
per test.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import GossipConfig
from repro.core.session import SessionConfig, SessionResult, StreamingSession
from repro.membership.partners import INFINITE
from repro.network.transport import NetworkConfig
from repro.simulation.engine import Simulator
from repro.streaming.schedule import StreamConfig


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "meanfield: the mean-field reach oracle (about 160 sessions); "
        "deselected unless -m selects it",
    )


def pytest_collection_modifyitems(config, items):
    """A run without ``-m``, tier-1 among them, leaves the ``meanfield`` tests out."""
    if config.getoption("markexpr"):
        return
    kept, deselected = [], []
    for item in items:
        (deselected if item.get_closest_marker("meanfield") else kept).append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = kept


def state_after_samples(seed: int, candidates, count: int, calls: int):
    """The state of ``random.Random(seed)`` after ``calls`` stdlib draws of
    ``sample(candidates, count)``: what a partner selector's stream must
    hold after that many refreshes."""
    rng = random.Random(seed)
    for _ in range(calls):
        rng.sample(candidates, count)
    return rng.getstate()


@pytest.fixture
def simulator() -> Simulator:
    """A fresh, deterministic simulator."""
    return Simulator(seed=1234)


def small_session_config(
    num_nodes: int = 25,
    fanout: int = 6,
    seed: int = 7,
    refresh_every: float = 1,
    feed_me_every: float = INFINITE,
    cap_kbps: float = 700.0,
    num_windows: int = 20,
    churn=None,
) -> SessionConfig:
    """A session small enough to run in a couple of seconds."""
    return SessionConfig(
        num_nodes=num_nodes,
        seed=seed,
        gossip=GossipConfig(
            fanout=fanout,
            refresh_every=refresh_every,
            feed_me_every=feed_me_every,
            retransmit_timeout=2.0,
        ),
        stream=StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=20,
            fec_packets_per_window=2,
            num_windows=num_windows,
        ),
        network=NetworkConfig(upload_cap_kbps=cap_kbps, max_backlog_seconds=10.0),
        extra_time=20.0,
        churn=churn,
    )


@pytest.fixture(scope="session")
def healthy_session_result() -> SessionResult:
    """One well-provisioned 25-node session, shared by many tests."""
    return StreamingSession(small_session_config()).run()


@pytest.fixture(scope="session")
def congested_session_result() -> SessionResult:
    """A session with an oversized fanout, shared by congestion-related tests."""
    return StreamingSession(small_session_config(fanout=20, num_windows=40)).run()
