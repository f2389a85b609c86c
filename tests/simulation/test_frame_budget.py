"""A work budget any host can gate: Python frames per simulated event.

Wall-clock is meaningless on a shared runner, but the number of
named-function frames the program executes under ``src/repro`` for a given
config is a pure function of the code: it is the same on every host and —
comprehension, lambda and generated ``<string>`` frames excluded — on every
supported interpreter.  A change that puts a frame back on the per-event
path moves it; see docs/performance.md, "Frame diet".
"""

from repro.bench.suite import frames_per_event
from repro.experiments.scale import SMOKE

#: ``frames_per_event(SMOKE.session_config())`` is 12.751822 (73,012
#: events); it was 25.600888 before the frame diet.  Rounded up to one
#: decimal so a stray frame per hundred events still fits, a frame per
#: PROPOSE id or per datagram does not.
BUDGET = 12.9


def test_scalar_session_stays_within_its_frame_budget():
    first = frames_per_event(SMOKE.session_config())
    assert 0.0 < first <= BUDGET
    # A work counter, not a measurement: it repeats exactly in one process.
    assert frames_per_event(SMOKE.session_config()) == first
