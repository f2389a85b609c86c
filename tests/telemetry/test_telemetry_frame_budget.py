"""What observation costs, as a work counter any host can gate.

The companion of ``tests/simulation/test_frame_budget.py``: named-function
frames under ``src/repro`` per simulated event with telemetry armed.  The
floor for a full trace is one frame per line (3.409 lines per event on this
config: 191,581 over 56,195 events) on top of the metrics handlers; see
docs/observability.md, "Cost".
"""

import dataclasses

from repro.bench.suite import frames_per_event
from repro.core.session import SessionConfig, run_session
from repro.experiments.scale import SMOKE
from repro.telemetry.config import TelemetryConfig

#: Metrics alone: 13.328321 (56,195 events; 16.758341 while every datagram
#: passed through the node's ``on_message`` and the simulator's
#: ``schedule_fire_and_forget``, every SERVE through ``StreamSchedule.packet``
#: and ``serve_size`` and every PROPOSE through ``_arm_retransmission`` and
#: ``_retryable``, 17.077747 while every PROPOSE read a config property,
#: 17.096628 while ``schedule_at`` called the event queue's push, 16.537970
#: over 59,994 while every quiet gossip tick fired, 15.035871 over 73,012
#: while every armed retransmission was queued and fired, 15.388731 while a
#: SERVE built two payload objects, 15.388758 while attaching added the
#: observer to the engine and removed it again, 15.388977 while four fate
#: counters duplicated traffic cells, 19.836917 before the handlers wrote the
#: metric slots themselves); untraced it is 9.969908.  Rounded up to one
#: decimal.
METRICS_BUDGET = 13.4

#: Untraced, ``tests/simulation/test_frame_budget.py``'s budget: the metrics
#: handlers cost frames on top of it.
UNTRACED_BUDGET = 10.0

#: Metrics and a full trace: 16.789857 (16.799858 while the writer decoded
#: each answer's kinds from its templates, 17.717626 while a delivery read
#: the simulator's clock once per observer, 21.147647 with the datagram path's
#: forwarding frames, 21.467052 with the config property too, 21.485933 with
#: the event queue's push too, 20.839434 while every quiet gossip tick fired,
#: 18.748863 while every retransmission fired, 19.101723 with two payload
#: objects per SERVE, 19.101750 with the engine observer added and removed
#: and the recorder asked whether it records dispatch, 19.101970 with the
#: duplicated fate counters, 33.759053 when a line travelled five frames to
#: the buffer).  Rounded up to one decimal.
TRACED_BUDGET = 16.8

#: Total frames of each session (748,985 and 943,506) stay under what they
#: were before the last change that moved them: the metrics session's with
#: the datagram path's forwarding frames (941,735; 992,179 while every quiet
#: gossip tick fired, 1,097,799 while every retransmission fired), the traced
#: session's while the writer decoded kinds from templates (944,068; 995,642
#: while a delivery read the clock once per observer, 1,188,392 with the
#: forwarding frames, 1,250,241 and 1,368,892 before).
#: A total that rose would show even where frames per event did not.
METRICS_FRAMES_BEFORE = 941_735
TRACED_FRAMES_BEFORE = 944_068


def armed(telemetry: TelemetryConfig):
    # Class bodies of lazily imported modules and the memoised code
    # fingerprint are frames too, once per process: spend them first.
    run_session(SessionConfig(num_nodes=4, seed=1, telemetry=telemetry))
    return dataclasses.replace(SMOKE.session_config(), telemetry=telemetry)


def total_frames(config, per_event: float) -> int:
    return round(per_event * run_session(config).events_processed)


def test_metrics_only_session_stays_within_its_frame_budget():
    config = armed(TelemetryConfig(metrics=True))
    first = frames_per_event(config)
    assert UNTRACED_BUDGET < first <= METRICS_BUDGET
    assert frames_per_event(config) == first
    assert total_frames(config, first) < METRICS_FRAMES_BEFORE


def test_traced_session_stays_within_its_frame_budget(tmp_path):
    config = armed(TelemetryConfig(metrics=True, trace_path=str(tmp_path / "t.jsonl")))
    first = frames_per_event(config)
    assert METRICS_BUDGET < first <= TRACED_BUDGET
    assert frames_per_event(config) == first
    assert total_frames(config, first) < TRACED_FRAMES_BEFORE
