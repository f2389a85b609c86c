"""What observation costs, as a work counter any host can gate.

The companion of ``tests/simulation/test_frame_budget.py``: named-function
frames under ``src/repro`` per simulated event with telemetry armed.  The
floor for a full trace is one frame per line (2.906 lines per event on this
config) on top of the metrics handlers; see docs/observability.md, "Cost".
"""

import dataclasses

from repro.bench.suite import frames_per_event
from repro.core.session import SessionConfig, run_session
from repro.experiments.scale import SMOKE
from repro.telemetry.config import TelemetryConfig

#: Metrics alone: 15.035871 (15.388731 while a SERVE built two payload
#: objects, 15.388758 while attaching added the observer to the engine and
#: removed it again, 15.388977 while four fate counters duplicated traffic
#: cells, 19.836917 before the handlers wrote the metric slots themselves);
#: untraced it is 12.398962.
METRICS_BUDGET = 16.2

#: Metrics and a full trace: 18.748863 (19.101723 with two payload objects
#: per SERVE, 19.101750 with the engine observer added and removed and the
#: recorder asked whether it records dispatch, 19.101970 with the duplicated
#: fate counters, 33.759053 when a line travelled five frames to the buffer).
TRACED_BUDGET = 20.5


def armed(telemetry: TelemetryConfig):
    # Class bodies of lazily imported modules and the memoised code
    # fingerprint are frames too, once per process: spend them first.
    run_session(SessionConfig(num_nodes=4, seed=1, telemetry=telemetry))
    return dataclasses.replace(SMOKE.session_config(), telemetry=telemetry)


def test_metrics_only_session_stays_within_its_frame_budget():
    config = armed(TelemetryConfig(metrics=True))
    first = frames_per_event(config)
    assert 12.9 < first <= METRICS_BUDGET
    assert frames_per_event(config) == first


def test_traced_session_stays_within_its_frame_budget(tmp_path):
    config = armed(TelemetryConfig(metrics=True, trace_path=str(tmp_path / "t.jsonl")))
    first = frames_per_event(config)
    assert METRICS_BUDGET < first <= TRACED_BUDGET
    assert frames_per_event(config) == first
