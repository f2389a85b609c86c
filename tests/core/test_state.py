"""Unit tests for per-node protocol state."""

from repro.core.state import NodeState, PendingRequest


class TestDelivery:
    def test_has_delivered_reads_the_delivered_map(self):
        state = NodeState()
        state.delivered[1] = 2.5
        assert state.has_delivered(1)
        assert not state.has_delivered(2)


class TestProposalQueue:
    def test_drain_returns_and_clears(self):
        state = NodeState()
        state.queue_for_proposal(1)
        state.queue_for_proposal(2)
        assert state.drain_proposals() == [1, 2]
        assert state.drain_proposals() == []

    def test_infect_and_die_semantics(self):
        """Each delivered packet is proposed in exactly one round."""
        state = NodeState()
        state.delivered[7] = 0.0
        state.queue_for_proposal(7)
        first_round = state.drain_proposals()
        second_round = state.drain_proposals()
        assert first_round == [7]
        assert second_round == []


class TestRequestBookkeeping:
    def test_record_request_increments(self):
        state = NodeState()
        state.record_request(5)
        state.record_request(5)
        assert state.request_attempts == {5: 2}


class TestPendingRequests:
    def test_a_fresh_state_has_nothing_pending(self):
        state = NodeState()
        assert not state.pending_requests
        assert state.retransmission is None

    def test_cancel_all_pending_disarms_timers(self, simulator):
        state = NodeState()
        fired = []
        for index in range(3):
            slot = simulator.reserve(1.0)
            state.pending_requests.append(PendingRequest(index, (index,), slot))
        front = state.pending_requests[0].slot
        state.retransmission = simulator.schedule_reserved(front, fired.append, 0)
        state.cancel_all_pending()
        simulator.run_until_idle()
        assert fired == []
        assert not state.pending_requests
        assert state.retransmission is None
