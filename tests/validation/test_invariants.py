"""Invariant checkers: clean runs pass, injected faults are caught."""

import pytest

from repro.core.messages import SERVE, ServePayload
from repro.network.bandwidth import UploadLimiter
from repro.network.message import Message
from repro.scenarios import build_scenario
from repro.scenarios import build_session
from repro.validation import (
    BandwidthCapCompliance,
    EventTimeMonotonicity,
    InvariantSuite,
    InvariantViolation,
    ProtocolConformance,
    validate_session,
)


def _armed_session(scenario="homogeneous", **overrides):
    overrides.setdefault("num_nodes", 14)
    overrides.setdefault("seed", 9)
    session = build_session(build_scenario(scenario, **overrides))
    session.build()
    suite = InvariantSuite.default().attach(session)
    return session, suite


class TestCleanRunsPass:
    @pytest.mark.parametrize(
        "scenario",
        ["homogeneous", "heterogeneous-bandwidth", "churn-window", "flash-crowd",
         "lossy-wan", "eager-push"],
    )
    def test_every_shipped_scenario_satisfies_all_invariants(self, scenario):
        spec = build_scenario(scenario, num_nodes=16, seed=5)
        result = validate_session(build_session(spec))
        assert result.events_processed > 0

    def test_conformance_checker_skips_one_phase_protocols(self):
        session, suite = _armed_session("eager-push")
        assert not ProtocolConformance.applies_to(session)
        suite.finalize(session.run())

    def test_conformance_checker_arms_for_three_phase(self):
        # TestProtocolConformanceInvariant shows the armed checker firing.
        session, _ = _armed_session("homogeneous")
        assert ProtocolConformance.applies_to(session)

    def test_reattaching_to_the_same_session_is_a_noop(self):
        """validate_session on a pre-attached suite must not double-register
        the observers (which would trip packet-conservation spuriously)."""
        session, suite = _armed_session()
        result = validate_session(session, suite)  # re-attaches internally
        assert result.events_processed > 0

    def test_attaching_to_a_second_session_is_rejected(self):
        _, suite = _armed_session()
        other = build_session(build_scenario("homogeneous", num_nodes=14, seed=9))
        other.build()
        with pytest.raises(ValueError, match="already attached"):
            suite.attach(other)


class TestBandwidthCapInvariant:
    def test_limiter_bypass_is_caught(self, monkeypatch):
        """The acceptance fault: a transport that exceeds its upload cap."""
        original = UploadLimiter.enqueue

        def cheating(self, size_bytes, now):
            finish = original(self, size_bytes, now)
            # Skip the serialization delay: bytes leave instantly, so the
            # node's effective upload rate is unbounded.
            return now if finish is not None else None

        monkeypatch.setattr(UploadLimiter, "enqueue", cheating)
        session, suite = _armed_session()
        with pytest.raises(InvariantViolation) as excinfo:
            suite.finalize(session.run())
        assert excinfo.value.invariant == "bandwidth-cap"
        assert excinfo.value.event_index >= 0

    def test_backlog_overflow_is_caught(self):
        session = build_session(build_scenario("homogeneous", num_nodes=14, seed=9))
        session.build()
        checker = BandwidthCapCompliance()
        InvariantSuite([checker]).attach(session)
        message = Message(sender=1, receiver=2, kind=SERVE, size_bytes=1000)
        # A finish time 25 s out implies a backlog far past the configured
        # 10 s bound — a correct limiter would have dropped this datagram.
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_send_accepted(message, now=0.0, finish_time=25.0)
        assert excinfo.value.invariant == "bandwidth-cap"
        assert "backlog" in str(excinfo.value)


class TestPacketConservationInvariant:
    def test_forged_delivery_is_caught(self):
        session, suite = _armed_session()
        forged = Message(
            sender=3,
            receiver=5,
            kind=SERVE,
            size_bytes=1040,
            payload=ServePayload(packet_id=0),
        )
        # Inject a datagram straight into delivery, bypassing send():
        # "every received shard was sent" must fire.
        session.simulator.schedule(1.0, session.network._deliver, forged)
        with pytest.raises(InvariantViolation) as excinfo:
            suite.finalize(session.run())
        assert excinfo.value.invariant == "packet-conservation"
        assert "never accepted" in str(excinfo.value)

    def test_delivery_log_tampering_is_caught_at_finalize(self):
        session, suite = _armed_session()
        result = session.run()
        # Tamper post-run: the log claims a delivery nobody observed.
        result.deliveries.record(5, 10_000, 1.0)
        with pytest.raises(InvariantViolation) as excinfo:
            suite.finalize(result)
        assert excinfo.value.invariant == "packet-conservation"
        assert "delivery log" in str(excinfo.value)


class TestProtocolConformanceInvariant:
    def test_unsolicited_serve_is_caught(self):
        session, suite = _armed_session()
        node = session.nodes[4]
        # The stream's last packet is published ~17 s in; at t = 1 s nobody
        # can have legitimately requested it yet.
        future_packet = session.schedule.num_packets - 1
        payload = ServePayload(packet_id=future_packet)

        def rogue_serve():
            node.send(7, SERVE, 1040, payload)

        session.simulator.schedule(1.0, rogue_serve)
        with pytest.raises(InvariantViolation) as excinfo:
            suite.finalize(session.run())
        assert excinfo.value.invariant == "protocol-conformance"
        assert "without a matching REQUEST" in str(excinfo.value)


class TestChurnHygieneInvariant:
    def test_zombie_sender_is_caught(self):
        session, suite = _armed_session()
        network = session.network

        def half_fail():
            # Fail node 6 at the network level (observers learn of the
            # departure) but resurrect its endpoint without the recovery
            # edge: its still-running timers now leak traffic from a node
            # the rest of the system believes is gone.
            network.fail_node(6)
            network._endpoints[6].alive = True

        session.simulator.schedule(1.0, half_fail)
        with pytest.raises(InvariantViolation) as excinfo:
            suite.finalize(session.run())
        assert excinfo.value.invariant == "churn-hygiene"

    def test_recovery_edge_clears_the_failure(self):
        session, suite = _armed_session()
        network = session.network

        def bounce():
            network.fail_node(6)
            network.recover_node(6)

        session.simulator.schedule(1.0, bounce)
        suite.finalize(session.run())  # no violation: the node recovered


class TestEventTimeMonotonicityInvariant:
    def test_decreasing_dispatch_time_is_caught(self):
        session, _ = _armed_session()
        checker = EventTimeMonotonicity()
        checker.bind(session)
        checker.on_event_dispatch(2.0, lambda: None, ())
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_event_dispatch(1.0, lambda: None, ())
        assert excinfo.value.invariant == "event-time-monotonicity"

    def test_equal_times_are_fine(self):
        session, _ = _armed_session()
        checker = EventTimeMonotonicity()
        checker.bind(session)
        checker.on_event_dispatch(2.0, lambda: None, ())
        checker.on_event_dispatch(2.0, lambda: None, ())


class TestViolationCoordinates:
    def test_violation_carries_invariant_and_event_index(self, monkeypatch):
        original = UploadLimiter.enqueue
        monkeypatch.setattr(
            UploadLimiter,
            "enqueue",
            lambda self, size_bytes, now: (
                now if original(self, size_bytes, now) is not None else None
            ),
        )
        indices = []
        for _ in range(2):
            session, suite = _armed_session()
            with pytest.raises(InvariantViolation) as excinfo:
                suite.finalize(session.run())
            indices.append(excinfo.value.event_index)
        # Deterministic coordinates: same code + spec + seed, same index.
        assert indices[0] == indices[1] >= 0
