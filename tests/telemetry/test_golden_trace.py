"""Golden trace: the event lines of one fixed-seed session, pinned by digest.

"Byte-identical traces" is otherwise only ever checked against a second run
of the *same* code.  The digest below was produced by the commit **before**
the recorder learned to format its lines directly (``json.dumps`` of a dict
per event), so it pins the bytes against history: whatever the recorder does
to get faster, these lines may not move.  One relabel since: ``d`` became
the sender's send count (``Message.seq``), and the pinned lines are the old
ones with each send's ``d`` replaced by its 1-based rank among its sender's
sends — no other byte moved.

The session is a lossy, congested, churned smoke run, plus one node whose
network endpoint is failed and later recovered while its timers keep
firing — so every kind of :data:`~repro.telemetry.schema.EVENT_KINDS`
appears, the rare ones included.

Regenerate (only for a deliberate, versioned format change)::

    PYTHONPATH=src python tests/telemetry/test_golden_trace.py
"""

import dataclasses
import hashlib

from repro.core.session import StreamingSession
from repro.experiments.scale import SMOKE
from repro.membership.churn import CatastrophicChurn
from repro.telemetry.cli import main
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.schema import EVENT_KINDS, validate_trace

GOLDEN_EVENTS = 18739
GOLDEN_SHA256 = "a8fa270600a041044f99008639716b0b8b1719111d158964d9c08ed1492c7a13"

#: Endpoint-only outage of one receiver (it is never ``fail()``-ed, so it
#: keeps trying to send: ``send_blocked``), then its recovery.
OUTAGE_NODE, OUTAGE_START, OUTAGE_END = 5, 1.0, 3.0


def record_golden_session(trace_path):
    """Run the pinned session with a full trace; returns its result."""
    scale = dataclasses.replace(
        SMOKE,
        seed=2009,
        num_nodes=24,
        num_windows=4,
        fanout_grid=(10,),
        optimal_fanout=10,
        max_backlog_seconds=0.25,
        random_loss=0.05,
        extra_time=4.0,
    )
    config = scale.session_config(refresh_every=2, feed_me_every=10)
    config = dataclasses.replace(
        config,
        churn=CatastrophicChurn(time=config.stream.duration / 2.0, fraction=0.35),
        telemetry=TelemetryConfig(metrics=True, trace_path=str(trace_path)),
    )
    session = StreamingSession(config)
    session.build()
    session.simulator.schedule_at(OUTAGE_START, session.network.fail_node, OUTAGE_NODE)
    session.simulator.schedule_at(OUTAGE_END, session.network.recover_node, OUTAGE_NODE)
    return session.run()


def event_lines_digest(trace_path):
    """``(event count, SHA-256 of the event lines)`` — the header is skipped."""
    with open(trace_path, "rb") as handle:
        handle.readline()
        body = handle.read()
    return body.count(b"\n"), hashlib.sha256(body).hexdigest()


def test_event_lines_match_the_digest_recorded_before_the_fast_path(tmp_path):
    path = tmp_path / "golden.jsonl"
    result = record_golden_session(path)
    by_kind = result.telemetry.trace_events_by_kind
    assert set(by_kind) == set(EVENT_KINDS), "the golden session must exercise every kind"
    assert sum(by_kind.values()) == result.telemetry.trace_events == GOLDEN_EVENTS
    assert event_lines_digest(path) == (GOLDEN_EVENTS, GOLDEN_SHA256)
    _, count = validate_trace(path)
    assert count == GOLDEN_EVENTS


def test_cli_reads_the_trace_unchanged(tmp_path, capsys):
    left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    record_golden_session(left)
    record_golden_session(right)
    assert main(["summarize", str(left)]) == 0
    assert f"validated: {GOLDEN_EVENTS:,} events" in capsys.readouterr().out
    assert main(["diff", str(left), str(right)]) == 0


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / "golden.jsonl"
        outcome = record_golden_session(target)
        print(dict(outcome.telemetry.trace_events_by_kind))
        print("GOLDEN_EVENTS = %d\nGOLDEN_SHA256 = %r" % event_lines_digest(target))
