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

#: Metrics alone: 17.096628 (56,195 events; 16.537970 over 59,994 while
#: every quiet gossip tick fired, 15.035871 over 73,012 while
#: every armed retransmission was queued and fired, 15.388731 while a SERVE
#: built two payload objects, 15.388758 while attaching added the observer
#: to the engine and removed it again, 15.388977 while four fate counters
#: duplicated traffic cells, 19.836917 before the handlers wrote the metric
#: slots themselves); untraced it is 13.738197.  Rounded up to one decimal.
METRICS_BUDGET = 17.1

#: Metrics and a full trace: 21.485933 (20.839434 while every quiet gossip
#: tick fired, 18.748863 while every retransmission fired, 19.101723 with two payload objects per SERVE, 19.101750 with the
#: engine observer added and removed and the recorder asked whether it
#: records dispatch, 19.101970 with the duplicated fate counters, 33.759053
#: when a line travelled five frames to the buffer).  Rounded up to one
#: decimal.
TRACED_BUDGET = 21.5

#: Total frames of each session (960,745 and 1,207,402) stay under what they
#: were while every quiet gossip tick fired (992,179 and 1,250,241; 1,097,799
#: and 1,368,892 while every retransmission fired): the no-op events that
#: went were cheaper than the average event, so frames per event rose, and
#: these keep the raised budgets from hiding added work.
METRICS_FRAMES_BEFORE = 992_179
TRACED_FRAMES_BEFORE = 1_250_241


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
    assert 13.8 < first <= METRICS_BUDGET
    assert frames_per_event(config) == first
    assert total_frames(config, first) < METRICS_FRAMES_BEFORE


def test_traced_session_stays_within_its_frame_budget(tmp_path):
    config = armed(TelemetryConfig(metrics=True, trace_path=str(tmp_path / "t.jsonl")))
    first = frames_per_event(config)
    assert METRICS_BUDGET < first <= TRACED_BUDGET
    assert frames_per_event(config) == first
    assert total_frames(config, first) < TRACED_FRAMES_BEFORE
