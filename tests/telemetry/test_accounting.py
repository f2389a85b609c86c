"""One count, four readings: the writer, its per-kind counts, ``i`` and the file; one count per fate."""

import dataclasses

import pytest

from repro.core.session import SessionConfig, StreamingSession, run_session
from repro.experiments.scale import SMOKE
from repro.membership.churn import CatastrophicChurn
from repro.shard import run_sharded
from repro.telemetry import recorder as recorder_module
from repro.telemetry import schema
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.schema import iter_events

FATES = ("deliver_msg", "loss", "drop_dead")


@pytest.mark.parametrize("flush_every", [1000, 7])
def test_every_count_of_a_trace_is_the_same_number(flush_every, tmp_path, monkeypatch):
    monkeypatch.setattr(schema, "FLUSH_EVERY", flush_every)
    path = tmp_path / "t.jsonl"
    config = SessionConfig(num_nodes=8, seed=11, telemetry=TelemetryConfig(trace_path=str(path)))
    snapshot = run_session(config).telemetry
    events = list(iter_events(path))
    assert events, "an empty trace would make every equality below vacuous"
    event_lines = len(path.read_text().splitlines()) - 1  # less the header
    assert (
        snapshot.trace_events
        == sum(snapshot.trace_events_by_kind.values())
        == events[-1]["i"] + 1
        == event_lines
    )
    by_kind = {}
    for event in events:
        by_kind[event["k"]] = by_kind.get(event["k"], 0) + 1
    assert snapshot.trace_events_by_kind == by_kind

    sent = [(event["snd"], event["d"]) for event in events if event["k"] == "send"]
    fates = [(event["snd"], event["d"]) for event in events if event["k"] in FATES]
    assert len(set(fates)) == len(fates), "one terminal fate per datagram"
    assert all(seq >= 1 for _, seq in fates), "every fate carries an accepted name"
    assert sent, "a full trace records every send"
    counts = {}
    for sender, seq in sent:
        counts[sender] = counts.get(sender, 0) + 1
        assert seq == counts[sender], "d is the sender's send count"
    assert set(fates) <= set(sent)


#: The ``TrafficStats`` cells counting accepted, congestion-dropped, lost and delivered datagrams.
FATE_CELLS = (
    "net.messages_sent",
    "net.messages_dropped_congestion",
    "net.messages_lost_in_flight",
    "net.messages_received",
)

#: The only fates ``MetricsObserver`` counts: no traffic cell holds them.
OBSERVER_FATES = {"net.datagrams{fate=blocked}", "net.datagrams{fate=dropped_dead}"}


def _lossy_congested_churned_config():
    scale = dataclasses.replace(
        SMOKE, seed=5, num_nodes=20, num_windows=4, fanout_grid=(10,), optimal_fanout=10,
        max_backlog_seconds=0.25, random_loss=0.05, extra_time=4.0,
    )
    config = scale.session_config(refresh_every=2)
    return dataclasses.replace(
        config,
        churn=CatastrophicChurn(time=config.stream.duration / 2.0, fraction=0.35),
        telemetry=TelemetryConfig(metrics=True),
    )


@pytest.mark.parametrize("shards", [None, 2], ids=["scalar", "2-shard-threads"])
def test_fates_are_exported_once(shards):
    config = dataclasses.replace(_lossy_congested_churned_config(), shards=shards)
    if shards is None:
        snapshots = (run_session(config).telemetry,)
    else:
        snapshots = run_sharded(config, mode="thread").telemetry
    for snapshot in snapshots:
        fates = {name for name in snapshot.metrics if name.startswith("net.datagrams{")}
        assert fates == OBSERVER_FATES
    totals = {cell: sum(snapshot.metrics[cell] for snapshot in snapshots) for cell in FATE_CELLS}
    assert all(totals.values()), f"the session must exercise every fate: {totals}"


def tick(simulator, left):
    if left:
        simulator.schedule(0.01, tick, simulator, left - 1)


def test_a_module_level_function_is_named_once(tmp_path, monkeypatch):
    """The callback memo used to key on ``__func__`` alone, so plain functions
    were named and JSON-encoded again on every event they fired."""
    named = []
    real = recorder_module.callback_name

    def counting(callback):
        named.append(callback)
        return real(callback)

    monkeypatch.setattr(recorder_module, "callback_name", counting)
    path = tmp_path / "t.jsonl"
    config = SessionConfig(num_nodes=8, seed=11, telemetry=TelemetryConfig(trace_path=str(path)))
    session = StreamingSession(config)
    session.build()
    session.simulator.schedule(0.0, tick, session.simulator, 50)
    session.run()
    ticks = [event for event in iter_events(path) if event.get("fn") == "tick"]
    assert len(ticks) == 51
    assert named.count(tick) == 1
    assert len(named) == len(set(named)), "nothing the session schedules is named twice"
