"""Telemetry as properties: purity of a run, and the bytes of a trace line.

Every registered scenario is shrunk to test size and run twice — once bare,
once with metrics *and* tracing armed.  The two
:class:`~repro.sweep.summary.PointSummary` records must be equal field for
field: the telemetry layer rides the PR 4 observer edges, whose contract is
pure observation, so arming it may never perturb a result.  This is the
telemetry mirror of ``test_scenario_properties`` and the property the
``telemetry-overhead`` benchmark's identity gate enforces in CI.

The second suite pins the recorder's fast path to the general one: whatever
values a field holds, a line rendered from its kind's template equals, byte
for byte, ``json.dumps`` of the same event.
"""

import json

from hypothesis import example, given, settings, strategies as st

from repro.network.message import Message, stamp_seq
from repro.scenarios import available_scenarios, build_scenario
from repro.scenarios import run_spec
from repro.sweep.summary import MetricsRequest, summarize
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.schema import EVENT_FIELDS, EVENT_KINDS, TraceWriter, json_text

REQUEST = MetricsRequest(
    viewing_lags=(10.0, 20.0, float("inf")),
    window_lags=(20.0,),
    lag_cdf_grid=(0.0, 5.0, 10.0, 20.0),
    include_usage=True,
)

SMALL = {"num_nodes": 16}
PER_SCENARIO_OVERRIDES = {
    "large-session": {
        "num_nodes": 16,
        "stream": build_scenario("homogeneous").stream,
    },
    # Scalar here: this suite inspects a single TelemetrySnapshot, and a
    # sharded run returns one snapshot per shard (a tuple).
    "metropolis": {
        "num_nodes": 16,
        "stream": build_scenario("homogeneous").stream,
        "shards": None,
    },
}


def _small_spec(name, seed, telemetry=None):
    overrides = dict(PER_SCENARIO_OVERRIDES.get(name, SMALL))
    overrides["seed"] = seed
    overrides["telemetry"] = telemetry
    return build_scenario(name, **overrides)


def _summary_of(spec):
    result = run_spec(spec)
    return result, summarize(result, REQUEST, cell_id=spec.name, seed=spec.seed)


class TestTelemetryPurity:
    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(sorted(available_scenarios())),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_armed_telemetry_leaves_summary_identical(self, name, seed, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("traces")
        bare_result, bare = _summary_of(_small_spec(name, seed))
        armed_spec = _small_spec(
            name,
            seed,
            telemetry=TelemetryConfig(
                metrics=True, trace_path=str(trace_dir / f"{name}-{seed}.jsonl")
            ),
        )
        armed_result, armed = _summary_of(armed_spec)
        assert bare == armed
        assert bare_result.events_processed == armed_result.events_processed
        # The armed run actually recorded something.
        snapshot = armed_result.telemetry
        assert snapshot is not None
        assert snapshot.trace_events > 0
        assert snapshot.metric("engine.events_dispatched") == float(
            armed_result.events_processed
        )

    def test_every_registered_scenario_accepts_telemetry(self):
        for name in available_scenarios():
            spec = _small_spec(name, seed=1, telemetry=TelemetryConfig(metrics=True))
            assert spec.telemetry is not None and spec.telemetry.armed


# ----------------------------------------------------------------------
# Fast path == general path, byte for byte
# ----------------------------------------------------------------------
INTS = st.integers() | st.sampled_from([0, -1, 2**53 + 1, -(2**63), 10**30])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 1e-7, 1e22, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 12.345678901234567,
     float("inf"), float("-inf"), float("nan")]
)
STRINGS = st.text() | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\tnewline\n\x00\x1f", "naïve ☃ 流", "\ud800",
     "Network.send.<locals>.deliver"]
)
FIELD_VALUES = {"fn": STRINGS, "mk": STRINGS, "fin": FLOATS, "source": st.booleans()}


def general_line(index, time, kind, fields):
    """What the trace format is defined to be: one compact ``json.dumps``."""
    return json.dumps({"i": index, "t": time, "k": kind, **fields}, separators=(",", ":"))


def event_lines(path):
    return path.read_text(encoding="utf-8").splitlines()[1:]


@st.composite
def one_event_per_kind(draw):
    """``[(kind, time, {field: value})]`` over every kind, typed per field."""
    return [
        (
            kind,
            draw(FLOATS | INTS),
            {name: draw(FIELD_VALUES.get(name, INTS)) for name in EVENT_FIELDS[kind]},
        )
        for kind in EVENT_KINDS
    ]


class TestFastLinesMatchJson:
    @settings(max_examples=150, deadline=None)
    @given(events=one_event_per_kind())
    def test_write_equals_json_dumps_for_every_kind(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("lines") / "t.jsonl"
        with TraceWriter(path) as writer:
            for kind, time, fields in events:
                # The recorder's convention: ints as they are, the rest as JSON text.
                values = [v if type(v) is int else json_text(v) for v in fields.values()]
                writer.write(kind, time, *values)
            assert writer.counts_by_kind == dict.fromkeys(EVENT_KINDS, 1)
        assert event_lines(path) == [
            general_line(index, time, kind, fields)
            for index, (kind, time, fields) in enumerate(events)
        ]

    @given(value=FLOATS | INTS | STRINGS | st.booleans() | st.none())
    @example(value=[1, "two", 3.0])
    def test_json_text_is_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, separators=(",", ":"))

    @settings(max_examples=60, deadline=None)
    @given(
        snd=st.integers(min_value=0),
        rcv=st.integers(min_value=0),
        mk=STRINGS,
        sz=st.integers(min_value=1),
        now=FLOATS,
        fin=FLOATS,
        packet=INTS,
        source=st.booleans(),
    )
    def test_recorder_edges_write_the_documented_lines(
        self, snd, rcv, mk, sz, now, fin, packet, source, tmp_path_factory
    ):
        """Every observer edge, driven directly: the recorder picks the right
        fields, in the right order, for each of the twelve kinds."""
        path = tmp_path_factory.mktemp("edges") / "t.jsonl"
        message = Message(sender=snd, receiver=rcv, kind=mk, size_bytes=sz)
        datagram = {"snd": snd, "rcv": rcv, "mk": mk, "sz": sz}
        with TraceWriter(path) as writer:
            recorder = TraceRecorder(writer)
            recorder.on_event_dispatch(now, message.size_bits, ())
            recorder.on_send_blocked(message, now)
            recorder.on_congestion_drop(message, now)
            for seq, fate in enumerate(
                (recorder.on_in_flight_loss, recorder.on_delivered, recorder.on_delivery_dropped),
                start=1,
            ):
                stamp_seq(message, seq)  # what the transport does on acceptance
                recorder.on_send_accepted(message, now, fin)
                fate(message, now)
            recorder.on_packet_delivered(snd, packet, now, source)
            recorder.on_node_failed(rcv, now)
            recorder.on_node_recovered(rcv, now)
            recorder.on_gossip_round(snd, now, [rcv] * 3)
            recorder.on_feed_me_round(snd, now, [])
        expected = [
            ("dispatch", {"fn": "Message.size_bits"}),
            ("send_blocked", datagram),
            ("drop_congestion", datagram),
            ("send", {**datagram, "d": 1, "fin": fin}),
            ("loss", {**datagram, "d": 1}),
            ("send", {**datagram, "d": 2, "fin": fin}),
            ("deliver_msg", {**datagram, "d": 2}),
            ("send", {**datagram, "d": 3, "fin": fin}),
            ("drop_dead", {**datagram, "d": 3}),
            ("packet", {"n": snd, "p": packet, "source": source}),
            ("node_failed", {"n": rcv}),
            ("node_recovered", {"n": rcv}),
            ("round", {"n": snd, "np": 3}),
            ("feed_me_round", {"n": snd, "nt": 0}),
        ]
        assert {kind for kind, _ in expected} == set(EVENT_KINDS)
        assert event_lines(path) == [
            general_line(index, now, kind, fields)
            for index, (kind, fields) in enumerate(expected)
        ]
