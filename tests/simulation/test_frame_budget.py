"""A work budget any host can gate: Python frames per simulated event.

Wall-clock is meaningless on a shared runner, but the number of
named-function frames the program executes under ``src/repro`` for a given
config is a pure function of the code: it is the same on every host and —
comprehension, lambda and generated ``<string>`` frames excluded — on every
supported interpreter.  A change that puts a frame back on the per-event
path moves it; see docs/performance.md, "Frame diet".
"""

from repro.bench.suite import frames_per_event
from repro.core.session import run_session
from repro.experiments.scale import SMOKE

#: ``frames_per_event(SMOKE.session_config())`` is 9.969908 (56,195
#: events); it was 13.399929 while every datagram passed through
#: ``GossipNode.on_message``, every delivery through
#: ``Simulator.schedule_fire_and_forget``, every SERVE through
#: ``StreamSchedule.packet`` and ``serve_size`` and every PROPOSE through
#: ``_arm_retransmission`` and ``_retryable``, 13.719334 while every PROPOSE
#: read a config property, 13.738197 while ``schedule_at`` called the event
#: queue's push, 13.328883 (59,994 events) while every node's gossip tick
#: fired every period, 12.398962 (73,012 events) while every armed
#: retransmission was queued and fired, 12.751822 while a SERVE built two
#: payload objects and a FEED_ME one, and 25.600888 before the frame diet.
#: Rounded up to one decimal so a stray frame per hundred events still fits,
#: a frame per PROPOSE id or per datagram does not.
BUDGET = 10.0

#: The session's total frames, 560,259, under the 753,009 it ran before the
#: datagram path lost its forwarding frames (770,958 with the config
#: property, 772,018 with the event queue's push too, 799,653 while every
#: quiet tick fired and 905,273 while every retransmission fired): a total
#: that rose would show even where frames per event did not.
FRAMES_BEFORE = 753_009


def test_scalar_session_stays_within_its_frame_budget():
    config = SMOKE.session_config()
    first = frames_per_event(config)
    assert 0.0 < first <= BUDGET
    # A work counter, not a measurement: it repeats exactly in one process.
    assert frames_per_event(config) == first
    events = run_session(config).events_processed
    assert round(first * events) < FRAMES_BEFORE
