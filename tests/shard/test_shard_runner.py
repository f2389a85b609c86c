"""Unit tests for the shard runner: router, window step, coordinator, links,
merge, entry point.

The equivalence property suite (``tests/properties/test_shard_equivalence``)
pins the end-to-end contract; these tests pin the individual moving parts
and — above all — the error paths, which a passing parity run never
exercises: protocol violations, diverged control planes, worker crashes.
"""

import dataclasses
import pickle
import re
import threading

import pytest

import repro.shard.runner as runner_module
from repro.core.session import session_horizon
from repro.network.message import Message, stamp_seq
from repro.scenarios.registry import build_scenario
from repro.shard.partition import plan_shards
from repro.shard.runner import (
    ShardProtocolError,
    _Coordinator,
    _InlineLink,
    _PipeChannel,
    _ProcessLink,
    _receive,
    _run_workers,
    _serve_shard,
    execute_sharded,
    merge_shard_results,
    run_sharded,
)
from repro.shard.session import (
    ShardRouter,
    ShardSession,
    WindowReply,
    WindowReport,
)
from repro.shard.wire import WireBatch, decode_batch, encode_batch
from repro.simulation.engine import Simulator
from repro.simulation.rng import RngRegistry


def small_config(num_nodes=8, shards=2, seed=3):
    spec = build_scenario("homogeneous", num_nodes=num_nodes, seed=seed, shards=shards)
    return spec.session_config()


def message(sender, receiver, seq=0):
    """A datagram; ``seq`` > 0 names it as the transport does on acceptance."""
    msg = Message(sender=sender, receiver=receiver, kind="serve", size_bytes=100)
    stamp_seq(msg, seq)
    return msg


class FakeNetwork:
    def __init__(self):
        self.delivered = []

    def schedule_delivery(self, msg, deliver_time):
        self.delivered.append((deliver_time, msg))


def decoded(batches):
    """A flush's batches, unpacked back to ``RoutedDatagram`` lists."""
    return {dest: decode_batch(batch) for dest, batch in batches.items()}


class TestShardRouter:
    # 4 nodes, 2 shards: shard 0 owns {0, 1}, shard 1 owns {2, 3}.
    LOOKUP = [0, 0, 1, 1]

    def test_local_datagrams_schedule_immediately(self):
        network = FakeNetwork()
        router = ShardRouter(network, shard_id=0, lookup=self.LOOKUP)
        router.dispatch(message(0, 1), 1.5)
        assert network.delivered == [(1.5, message(0, 1))]
        assert router.flush() == {}

    def test_remote_datagrams_batch_under_their_names(self):
        network = FakeNetwork()
        router = ShardRouter(network, shard_id=0, lookup=self.LOOKUP)
        first, second = message(0, 2, seq=7), message(1, 3, seq=1)
        router.dispatch(first, 2.0)
        router.dispatch(second, 1.0)  # earlier time, later dispatch: order kept
        assert network.delivered == []
        batches = router.flush()
        assert isinstance(batches[1], WireBatch)
        assert decoded(batches) == {1: [(2.0, 0, 7, first), (1.0, 1, 1, second)]}
        # The name crosses the wire on the rebuilt message too.
        assert [d[3].seq for d in decoded(batches)[1]] == [7, 1]

    def test_flush_clears_the_window(self):
        router = ShardRouter(FakeNetwork(), shard_id=0, lookup=self.LOOKUP)
        router.dispatch(message(0, 2, seq=1), 1.0)
        assert [seq for _, _, seq, _ in decoded(router.flush())[1]] == [1]
        router.dispatch(message(0, 3, seq=2), 2.0)
        assert [seq for _, _, seq, _ in decoded(router.flush())[1]] == [2]
        assert router.flush() == {}

    def test_batches_split_per_destination_shard(self):
        lookup = [0, 1, 1, 2]  # three shards, shard 0 owns only node 0
        router = ShardRouter(FakeNetwork(), shard_id=0, lookup=lookup)
        router.dispatch(message(0, 1), 1.0)
        router.dispatch(message(0, 3), 2.0)
        router.dispatch(message(0, 2), 3.0)
        batches = decoded(router.flush())
        assert set(batches) == {1, 2}
        assert [d[3].receiver for d in batches[1]] == [1, 2]
        assert [d[3].receiver for d in batches[2]] == [3]


class TestWindowStep:
    """One step: schedule the reply's inbound, run the next window, report it."""

    def shard(self, network):
        """Shard 0 of [0, 0, 1, 1]: a bare simulator, router and network in
        place of a session build (no nodes), horizon at 10."""
        shard = ShardSession.__new__(ShardSession)
        shard.shard_id = 0
        shard.simulator = Simulator(seed=1)
        shard.network = network
        shard._router = ShardRouter(network, shard_id=0, lookup=[0, 0, 1, 1])
        shard._until = 10.0
        return shard

    def test_report_describes_the_window_and_inbound_lands_in_merge_order(self):
        network = FakeNetwork()
        shard = self.shard(network)
        ran = []
        shard.simulator.schedule_at(2.5, ran.append, "in-window")
        shard.simulator.schedule_at(4.5, ran.append, "next-window")
        outbound = message(0, 2, seq=1)
        shard._router.dispatch(outbound, 2.25)
        early, tie, late = message(3, 1, seq=1), message(2, 1, seq=4), message(2, 0, seq=5)
        inbound = [
            encode_batch([(3.0, 2, 5, late)]),
            encode_batch([(3.0, 2, 4, tie), (2.75, 3, 1, early)]),
        ]

        report = shard.step(WindowReply(next_bound=4.0, done=False, inbound=inbound))
        assert (report.shard_id, report.bound, report.peek_time) == (0, 4.0, 4.5)
        assert ran == ["in-window"]
        assert decoded(report.outbound) == {1: [(2.25, 0, 1, outbound)]}
        # (deliver_time, sender, seq) order, whatever order the batches came in.
        assert network.delivered == [(2.75, early), (3.0, tie), (3.0, late)]
        assert shard._router.flush() == {}

    def test_a_done_reply_schedules_its_inbound_and_runs_nothing(self):
        network = FakeNetwork()
        shard = self.shard(network)
        shard.simulator.schedule_at(2.5, lambda: None)
        datagram = message(3, 1, seq=1)
        reply = WindowReply(
            next_bound=10.0, done=True, inbound=[encode_batch([(11.0, 3, 1, datagram)])]
        )
        assert shard.step(reply) is None
        assert network.delivered == [(11.0, datagram)]
        assert shard.simulator.events_processed == 0


def owned_node(config, shard_id, index=0):
    """The index-th node a shard owns under the config's plan."""
    return plan_shards(config, config.shards).groups[shard_id][index]


class TestCoordinator:
    def coordinator(self, config=None):
        config = config or small_config()
        plan = plan_shards(config, config.shards)
        return _Coordinator(plan, session_horizon(config)), config

    def first_bound(self, config):
        """The bound every shard opens with: one lookahead from the start."""
        return min(session_horizon(config), plan_shards(config, config.shards).lookahead)

    def report(self, shard_id, bound, outbound=None, peek=None):
        """A window report; ``outbound`` maps shard id to a datagram list."""
        return WindowReport(
            shard_id=shard_id,
            bound=bound,
            outbound={
                dest: encode_batch(datagrams)
                for dest, datagrams in (outbound or {}).items()
            },
            peek_time=peek,
        )

    def cross_datagram(self, config, deliver_time=2.0, seq=1):
        """A valid shard-0 → shard-1 datagram under the config's partition."""
        sender = owned_node(config, 0)
        receiver = owned_node(config, 1)
        return (deliver_time, sender, seq, message(sender, receiver))

    def test_wrong_report_count_rejected(self):
        coordinator, _ = self.coordinator()
        with pytest.raises(ShardProtocolError, match="expected 2 window reports"):
            coordinator.replies([self.report(0, 1.0)])

    def test_invalid_shard_id_set_rejected(self):
        coordinator, _ = self.coordinator()
        with pytest.raises(ShardProtocolError, match="invalid shard ids"):
            coordinator.replies([self.report(0, 1.0), self.report(0, 1.0)])

    def test_diverged_bounds_rejected(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        with pytest.raises(ShardProtocolError, match="bounds diverged: shard 1 reported"):
            coordinator.replies([self.report(0, first), self.report(1, first + 0.5)])

    def test_report_must_echo_the_issued_bound(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        replies = coordinator.replies(
            [self.report(0, first, peek=5.0), self.report(1, first, peek=5.0)]
        )
        with pytest.raises(ShardProtocolError, match="coordinator issued"):
            coordinator.replies(
                [
                    self.report(0, replies[0].next_bound + 0.5),
                    self.report(1, replies[1].next_bound),
                ]
            )

    def test_every_shard_gets_one_bound_past_the_earliest_peek(self):
        coordinator, config = self.coordinator()
        lookahead = plan_shards(config, config.shards).lookahead
        until = session_horizon(config)
        first = self.first_bound(config)
        replies = coordinator.replies(
            [self.report(0, first, peek=7.0), self.report(1, first, peek=5.0)]
        )
        # Nothing sends before 5.0, and nothing sent then crosses in less
        # than a lookahead: both shards may run up to 5.0 + L.
        assert [reply.next_bound for reply in replies] == [min(until, 5.0 + lookahead)] * 2
        assert not any(reply.done for reply in replies)

    def test_in_flight_datagram_sets_the_earliest_send(self):
        coordinator, config = self.coordinator()
        lookahead = plan_shards(config, config.shards).lookahead
        until = session_horizon(config)
        first = self.first_bound(config)
        datagram = self.cross_datagram(config, deliver_time=2.0)
        replies = coordinator.replies(
            [
                self.report(0, first, outbound={1: [datagram]}, peek=9.0),
                self.report(1, first),
            ]
        )
        # Shard 1 is silent, but the datagram routed to it can make it send
        # at 2.0: that is the earliest send of the round, for both shards.
        assert [reply.next_bound for reply in replies] == [min(until, 2.0 + lookahead)] * 2

    def test_a_silent_shard_is_bound_by_the_other_shards_peek(self):
        coordinator, config = self.coordinator()
        lookahead = plan_shards(config, config.shards).lookahead
        until = session_horizon(config)
        first = self.first_bound(config)
        replies = coordinator.replies(
            [self.report(0, first, peek=None), self.report(1, first, peek=5.0)]
        )
        assert [reply.next_bound for reply in replies] == [min(until, 5.0 + lookahead)] * 2

    def test_single_shard_jumps_to_horizon_despite_pending_events(self):
        config = small_config(shards=1)
        coordinator = _Coordinator(plan_shards(config, 1), session_horizon(config))
        replies = coordinator.replies([self.report(0, self.first_bound(config), peek=2.0)])
        # No other shard can ever influence it: one window to the horizon.
        assert replies[0].next_bound == session_horizon(config)

    def test_datagrams_route_to_receiver_shard(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        to_one = self.cross_datagram(config)
        replies = coordinator.replies(
            [self.report(0, first, outbound={1: [to_one]}), self.report(1, first)]
        )
        assert replies[0].inbound == []
        assert [decode_batch(batch) for batch in replies[1].inbound] == [[to_one]]

    def test_batches_forwarded_without_decoding(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        report = self.report(0, first, outbound={1: [self.cross_datagram(config)]})
        replies = coordinator.replies([report, self.report(1, first)])
        assert replies[1].inbound[0] is report.outbound[1]

    def test_unknown_receiver_named_in_error(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        sender = owned_node(config, 0)
        bogus = (2.0, sender, 1, message(sender, 999))
        with pytest.raises(ShardProtocolError, match="unknown receiver 999"):
            coordinator.replies(
                [self.report(0, first, outbound={1: [bogus]}), self.report(1, first)]
            )

    def test_misrouted_batch_named_in_error(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        sender = owned_node(config, 0)
        local = owned_node(config, 0, index=1)
        misrouted = (2.0, sender, 1, message(sender, local))
        with pytest.raises(ShardProtocolError, match="misrouted datagram #0"):
            coordinator.replies(
                [self.report(0, first, outbound={1: [misrouted]}), self.report(1, first)]
            )

    def test_datagram_due_inside_an_executed_window_names_both_shards(self):
        # Both shards have already run everything below the first bound; a
        # datagram due halfway there can only mean the lookahead was too wide.
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        due = first / 2
        on_time = self.cross_datagram(config, deliver_time=first, seq=1)
        late = self.cross_datagram(config, deliver_time=due, seq=2)
        with pytest.raises(
            ShardProtocolError,
            match=re.escape(
                f"lookahead violated: shard 0 sent shard 1 datagram #1 "
                f"due at {due!r}, {first - due!r}s before the bound {first!r}"
            ),
        ):
            coordinator.replies(
                [
                    self.report(0, first, outbound={1: [on_time, late]}),
                    self.report(1, first),
                ]
            )

    def test_datagram_due_exactly_at_the_bound_is_on_time(self):
        # The window is half open: an event at the bound belongs to the next
        # window, so a delivery landing exactly on it is still safe.
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        replies = coordinator.replies(
            [
                self.report(
                    0, first, outbound={1: [self.cross_datagram(config, deliver_time=first)]}
                ),
                self.report(1, first),
            ]
        )
        assert len(replies[1].inbound) == 1

    def test_foreign_sender_rejected(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        intruder = owned_node(config, 1)  # shard 0 reporting shard 1's node
        receiver = owned_node(config, 1, index=1)
        forged = (2.0, intruder, 1, message(intruder, receiver))
        with pytest.raises(ShardProtocolError, match="does not own"):
            coordinator.replies(
                [self.report(0, first, outbound={1: [forged]}), self.report(1, first)]
            )

    def test_invalid_destination_shard_rejected(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        datagram = self.cross_datagram(config)
        with pytest.raises(ShardProtocolError, match="invalid shard 5"):
            coordinator.replies(
                [self.report(0, first, outbound={5: [datagram]}), self.report(1, first)]
            )

    def test_self_addressed_batch_rejected(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        sender = owned_node(config, 0)
        local = owned_node(config, 0, index=1)
        datagram = (2.0, sender, 1, message(sender, local))
        with pytest.raises(ShardProtocolError, match="itself"):
            coordinator.replies(
                [self.report(0, first, outbound={0: [datagram]}), self.report(1, first)]
            )

    def test_empty_system_jumps_straight_to_horizon(self):
        coordinator, config = self.coordinator()
        first = self.first_bound(config)
        replies = coordinator.replies([self.report(0, first), self.report(1, first)])
        assert all(reply.next_bound == session_horizon(config) for reply in replies)
        assert not any(reply.done for reply in replies)

    def test_drain_finishes_only_when_idle(self):
        coordinator, config = self.coordinator()
        until = session_horizon(config)
        first = self.first_bound(config)
        # No shard can send: both are sent to the horizon.
        coordinator.replies([self.report(0, first), self.report(1, first)])
        # Still moving a datagram at the horizon: not done.
        moving = coordinator.replies(
            [
                self.report(
                    0,
                    until,
                    outbound={1: [self.cross_datagram(config, deliver_time=until)]},
                ),
                self.report(1, until),
            ]
        )
        assert not any(reply.done for reply in moving)
        # An event past the horizon does not hold the run open.
        idle = coordinator.replies(
            [self.report(0, until, peek=until + 1.0), self.report(1, until)]
        )
        assert all(reply.done for reply in idle)
        # An event at or below the horizon does.
        pending = coordinator.replies(
            [self.report(0, until, peek=until), self.report(1, until)]
        )
        assert not any(reply.done for reply in pending)


class TestMergeShardResults:
    @pytest.fixture(scope="class")
    def run(self):
        config = small_config()
        plan = plan_shards(config, config.shards)
        fragments, _rounds = _run_workers(config, plan, "thread")
        return config, plan, fragments

    def test_fragments_merge_cleanly(self, run):
        config, plan, fragments = run
        merged = merge_shard_results(config, plan, fragments)
        assert merged.deliveries.total_deliveries > 0
        assert merged.events_processed > 0

    def test_empty_fragment_list_rejected(self, run):
        config, plan, _ = run
        with pytest.raises(ValueError, match="empty"):
            merge_shard_results(config, plan, [])

    def test_incomplete_fragment_set_rejected(self, run):
        config, plan, fragments = run
        with pytest.raises(ShardProtocolError, match="incomplete shard results"):
            merge_shard_results(config, plan, fragments[:1])
        with pytest.raises(ShardProtocolError, match="incomplete shard results"):
            merge_shard_results(config, plan, [fragments[0], fragments[0]])

    def test_ownership_violation_rejected(self, run):
        config, plan, fragments = run
        intruder = fragments[1].owned[0]
        tampered = dataclasses.replace(
            fragments[0],
            deliveries=_copy_deliveries(config, fragments[0], extra=(intruder, 0, 1.0)),
        )
        with pytest.raises(ShardProtocolError, match="owned by shard"):
            merge_shard_results(config, plan, [tampered, fragments[1]])

    def test_diverged_control_plane_rejected(self, run):
        config, plan, fragments = run
        for field_name, value, match in (
            ("failed_nodes", [99], "failure history"),
            ("late_joiners", [99], "late-joiner set"),
            ("control_events", fragments[1].control_events + 1, "control-event count"),
            ("end_time", fragments[1].end_time + 1.0, "session end time"),
        ):
            tampered = dataclasses.replace(fragments[1], **{field_name: value})
            with pytest.raises(ShardProtocolError, match=match):
                merge_shard_results(config, plan, [fragments[0], tampered])

    def test_merge_accepts_fragments_in_any_order(self, run):
        config, plan, fragments = run
        forward = merge_shard_results(config, plan, list(fragments))
        reverse = merge_shard_results(config, plan, list(reversed(fragments)))
        assert forward.events_processed == reverse.events_processed
        assert forward.deliveries.total_deliveries == reverse.deliveries.total_deliveries


def _copy_deliveries(config, fragment, extra):
    """A fresh DeliveryLog replaying a fragment's records plus one intruder."""
    from repro.metrics.delivery import DeliveryLog
    from repro.streaming.schedule import StreamSchedule

    log = DeliveryLog(StreamSchedule(config.stream))
    for node_id, node_log in fragment.deliveries.raw().items():
        for packet_id, delivered_at in node_log.items():
            log.record(node_id, packet_id, delivered_at)
    node_id, packet_id, delivered_at = extra
    log.record(node_id, packet_id, delivered_at)
    return log


class TestRunShardedValidation:
    def test_needs_a_shard_count_somewhere(self):
        config = small_config()
        config = dataclasses.replace(config, shards=None)
        with pytest.raises(ValueError, match="shard count"):
            run_sharded(config)

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_sharded(dataclasses.replace(small_config(), shards=0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown sharded runner mode"):
            run_sharded(small_config(), mode="fiber")

    def test_flash_crowd_joiners_match_scalar_oracle(self):
        """Joiners are started only on their owning shard, at the oracle's instant."""
        from repro.core.session import StreamingSession
        from repro.sweep.summary import MetricsRequest, summarize

        config = build_scenario("flash-crowd", num_nodes=16, seed=4, shards=2).session_config()
        oracle = StreamingSession(config).run()
        result = run_sharded(config)
        request = MetricsRequest(viewing_lags=(10.0, float("inf")), include_usage=True)
        assert result.late_joiners and result.late_joiners == oracle.late_joiners
        assert summarize(result, request, cell_id="flash", seed=4) == summarize(
            oracle, request, cell_id="flash", seed=4
        )
        assert result.events_processed == oracle.events_processed

    def test_unshardable_latency_model_fails_before_any_worker_starts(self):
        config = small_config()
        network = dataclasses.replace(
            config.network, latency_model="constant", base_latency=0.0
        )
        config = dataclasses.replace(config, network=network)
        with pytest.raises(ValueError, match="cross-shard latency floor"):
            run_sharded(config)


def _no_shard_workers_left():
    import multiprocessing

    return not [p for p in multiprocessing.active_children() if p.is_alive()]


class TestWindowCount:
    """The mechanism the placement exists for: fewer, fuller barrier rounds."""

    CONFIG = dict(num_nodes=30, shards=2, seed=42)

    def test_rounds_agree_across_modes_and_undercut_the_global_floor(self):
        config = small_config(**self.CONFIG)
        thread = execute_sharded(config, mode="thread")
        process = execute_sharded(config, mode="process")
        assert thread.windows == process.windows
        assert thread.plan == process.plan
        assert thread.result.events_processed == process.result.events_processed

        # The same placement windowed on the model's global clamp — what the
        # runner used before the lookahead was derived per placement.
        floor = config.network.build_latency(RngRegistry(0), []).min_latency()
        clamped = dataclasses.replace(thread.plan, lookahead=floor)
        fragments, clamped_rounds = _run_workers(config, clamped, "thread")
        merged = merge_shard_results(config, clamped, fragments)
        assert merged.events_processed == thread.result.events_processed
        assert thread.windows * 3 <= clamped_rounds


@pytest.fixture
def rounds(monkeypatch):
    """Every coordinator round's reports."""
    seen = []
    real = _Coordinator.replies

    def replies(self, reports):
        seen.append(list(reports))
        return real(self, reports)

    monkeypatch.setattr(_Coordinator, "replies", replies)
    return seen


class TestLockstep:
    """The coordinator issues one bound per round: every shard runs the same window."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_every_report_of_a_round_carries_the_same_bound(self, shards, mode, rounds):
        run = execute_sharded(small_config(shards=shards), mode=mode)
        assert len(rounds) == run.windows > 2
        assert all(len({report.bound for report in reports}) == 1 for reports in rounds)
        bounds = [reports[0].bound for reports in rounds]
        assert bounds == sorted(bounds)

    def test_a_single_shard_runs_its_first_window_then_the_horizon(self, rounds):
        config = small_config(shards=1)
        run = execute_sharded(config)
        assert [reports[0].bound for reports in rounds] == [
            plan_shards(config, 1).lookahead,
            session_horizon(config),
        ]
        assert run.windows == 2


class TestQuietRounds:
    """A node with nothing to propose queues no gossip tick, so a shard
    whose nodes all wait for a datagram has an empty queue and reports no
    peek: the drain after the stream is granted in one window instead of a
    barrier round per tick."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_quiet_rounds_stop_holding_the_barrier(self, mode, rounds):
        run = execute_sharded(small_config(), mode=mode)
        moved = [
            any(batch.count for report in reports for batch in report.outbound.values())
            for reports in rounds
        ]
        # 752 rounds, 583 of them moving nothing, while every quiet tick
        # held the barrier; 205 (31) while a queue of quiet ticks alone was
        # spotted by asking the protocols; the drain takes the last three.
        assert run.windows == len(moved) == 199
        assert moved.count(False) == 26
        assert moved[-3:] == [False, False, False]
        assert run.result.events_processed == 7031

    def test_a_parked_shard_reports_no_peek_and_the_run_matches_the_scalar_oracle(
        self, rounds
    ):
        # While the stream runs a shard can hold nothing but parked nodes:
        # its queue is empty, and with one bound for every shard its silence
        # cannot put the windows out of step.
        from repro.core.session import StreamingSession

        config = small_config()
        result = run_sharded(config)
        during = [
            report
            for reports in rounds
            for report in reports
            if report.bound <= config.stream.end_time
        ]
        assert any(report.peek_time is None for report in during)
        oracle = StreamingSession(config).run()
        assert result.deliveries.raw() == oracle.deliveries.raw()
        assert result.events_processed == oracle.events_processed
        assert result.node_stats == oracle.node_stats

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_feed_me_ticks_keep_every_window(self, mode):
        # A FEED_ME tick sends, so it is always queued and always peeked.
        spec = build_scenario("homogeneous", num_nodes=8, seed=3, shards=2, feed_me_every=4)
        assert execute_sharded(spec.session_config(), mode=mode).windows == 360

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_a_shard_claiming_silence_while_it_sends_trips_the_guard(self, mode, monkeypatch):
        _needs_fork(mode)
        real = ShardSession._window

        def hide_shard_0(self, bound):
            report = real(self, bound)
            if self.shard_id == 0:
                report.peek_time = None
            return report

        monkeypatch.setattr(ShardSession, "_window", hide_shard_0)
        config = small_config()
        with pytest.raises(
            ShardProtocolError,
            match=r"lookahead violated: shard 0 sent shard 1 datagram #\d+ due at ",
        ):
            _run_workers(config, plan_shards(config, 2), mode)
        assert _no_shard_workers_left()


class TestThreadMode:
    """``thread`` mode starts no thread: one profiler in the caller sees every shard."""

    def test_every_shard_steps_in_the_calling_thread(self, monkeypatch):
        import cProfile
        import pstats

        sampled = []
        real_build = ShardSession.build

        def build_then_sample(self):
            real_build(self)
            self.simulator.schedule_at(1.0, lambda: sampled.append(threading.active_count()))

        monkeypatch.setattr(ShardSession, "build", build_then_sample)
        before = threading.active_count()
        profile = cProfile.Profile()
        profile.enable()
        try:
            run_sharded(small_config(), mode="thread")
        finally:
            profile.disable()
        steps = [
            calls
            for (filename, _line, name), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items()
            if name == "step" and filename.endswith("session.py") and "shard" in filename
        ]
        assert steps and steps[0] > 0
        assert sampled == [before, before]


class TestLookaheadGuard:
    """A lookahead wider than a real cross-shard delay ends the run with a
    named protocol error — in either mode, with every worker joined."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_over_wide_lookahead_is_named_and_workers_are_joined(self, mode):
        config = small_config(num_nodes=30, shards=2, seed=42)
        plan = plan_shards(config, 2)
        too_wide = dataclasses.replace(plan, lookahead=plan.lookahead * 40)
        with pytest.raises(
            ShardProtocolError,
            match=r"lookahead violated: shard \d sent shard \d datagram #\d+ due at "
            r"\S+, \S+s before the bound \S+ shard \d has already executed",
        ):
            _run_workers(config, too_wide, mode)
        assert _no_shard_workers_left()


def _fail_on_open(monkeypatch, fail):
    """Make shard 1 call ``fail()`` as it opens, before its first window."""
    real = ShardSession.open

    def open_(self):
        if self.shard_id == 1:
            fail()
        return real(self)

    monkeypatch.setattr(ShardSession, "open", open_)


class TestWorkerFailure:
    def test_thread_worker_crash_reraises_original(self, monkeypatch):
        def fail():
            raise RuntimeError("shard 1 corrupted")

        _fail_on_open(monkeypatch, fail)
        # The *original* worker exception surfaces, not a wrapped protocol
        # error — the caller debugs the actual failure.
        with pytest.raises(RuntimeError, match="shard 1 corrupted"):
            run_sharded(small_config(), mode="thread")
        assert _no_shard_workers_left()

    def test_process_worker_death_raises_clean_protocol_error(self, monkeypatch):
        import multiprocessing
        import os

        _needs_fork("process")
        _fail_on_open(monkeypatch, lambda: os._exit(17))  # an OOM-kill / hard crash
        with pytest.raises(ShardProtocolError, match="shard 1 died without reporting"):
            run_sharded(small_config(), mode="process")
        # No zombie workers left behind.
        assert not [p for p in multiprocessing.active_children() if p.is_alive()]


def _fail_on_third_step(monkeypatch, fail):
    """Make shard 1 call ``fail()`` as its third ``step`` begins."""
    real = ShardSession.step

    def step(self, reply):
        self.steps = getattr(self, "steps", 0) + 1
        if self.shard_id == 1 and self.steps == 3:
            fail()
        return real(self, reply)

    monkeypatch.setattr(ShardSession, "step", step)


def _needs_fork(mode):
    import multiprocessing

    if mode == "process" and multiprocessing.get_start_method() != "fork":
        pytest.skip("a monkeypatched process worker needs the fork start method")


class TestMidWindowFailure:
    """A worker failing between windows ends the run through the one abort
    path: the other shard is waiting for its reply and must be released."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_raising_worker_is_reported_and_every_worker_joined(self, mode, monkeypatch):
        _needs_fork(mode)

        def fail():
            raise RuntimeError("shard 1 corrupted mid-run")

        _fail_on_third_step(monkeypatch, fail)
        if mode == "thread":
            expected = pytest.raises(RuntimeError, match="shard 1 corrupted mid-run")
        else:
            expected = pytest.raises(
                ShardProtocolError,
                match=r"(?s)shard 1 raised:.*RuntimeError: shard 1 corrupted mid-run",
            )
        with expected:
            run_sharded(small_config(), mode=mode)
        assert _no_shard_workers_left()

    def test_process_that_exits_mid_run_is_named_and_every_worker_joined(self, monkeypatch):
        import os

        _needs_fork("process")
        _fail_on_third_step(monkeypatch, lambda: os._exit(17))
        with pytest.raises(
            ShardProtocolError, match=r"shard 1 died without reporting \(exit code 17\)"
        ):
            run_sharded(small_config(), mode="process")
        assert _no_shard_workers_left()


class ScriptedChannel:
    """A worker's end of a pipe whose coordinator answers from a script."""

    def __init__(self, *answers):
        self.sent = []
        self._answers = iter(answers)

    def put(self, message):
        self.sent.append(message)

    def get(self):
        return next(self._answers)


class ScriptedSession:
    """Stands in for a :class:`ShardSession`: one report, then its fragment."""

    def __init__(self, config, shard_id, plan):
        self.steps = []
        self.telemetry_closed = False

    def open(self):
        return REPORT

    def step(self, reply):
        self.steps.append(reply)
        return None if reply.done else REPORT

    def close(self):
        self._close_telemetry()
        return "fragment"

    def _close_telemetry(self):
        self.telemetry_closed = True


def _worker(monkeypatch, session_class=ScriptedSession):
    """Make the process worker run ``session_class``; return its instances."""
    sessions = []

    def build(config, shard_id, plan):
        sessions.append(session_class(config, shard_id, plan))
        return sessions[-1]

    monkeypatch.setattr(runner_module, "ShardSession", build)
    return sessions


class FakeLink:
    """A coordinator's end of a link that receives scripted messages."""

    def __init__(self, *messages):
        self._messages = iter(messages)

    def receive(self, shard_id):
        return next(self._messages)


REPORT = WindowReport(shard_id=0, bound=1.0, outbound={}, peek_time=None)


class TestLinks:
    """Both ends of a link, one message at a time, with no session run."""

    def test_a_worker_reports_each_window_and_steps_on_each_reply(self, monkeypatch):
        sessions = _worker(monkeypatch)
        more = WindowReply(next_bound=2.0, done=False)
        done = WindowReply(next_bound=2.0, done=True)
        channel = ScriptedChannel(("reply", more), ("reply", done))
        _serve_shard(channel, None, 0, None)
        assert channel.sent == [("window", REPORT), ("window", REPORT), ("result", "fragment")]
        assert sessions[0].steps == [more, done]

    def test_a_finished_worker_sends_its_result(self, monkeypatch):
        sessions = _worker(monkeypatch)
        channel = ScriptedChannel(("reply", WindowReply(next_bound=1.0, done=True)))
        _serve_shard(channel, None, 0, None)
        assert channel.sent[-1] == ("result", "fragment")
        assert sessions[0].telemetry_closed

    def test_an_aborted_worker_stops_without_another_message(self, monkeypatch):
        sessions = _worker(monkeypatch)
        channel = ScriptedChannel(("abort", None))
        _serve_shard(channel, None, 0, None)
        assert channel.sent == [("window", REPORT)]
        assert sessions[0].steps == []
        assert sessions[0].telemetry_closed  # its trace still ends whole

    def test_the_inline_link_steps_a_shard_on_send_and_then_holds_its_result(
        self, monkeypatch
    ):
        sessions = _worker(monkeypatch)
        link = _InlineLink(None, plan_shards(small_config(), 2))
        link.start()
        assert [link.receive(shard_id) for shard_id in (0, 1)] == [("window", REPORT)] * 2
        more = WindowReply(next_bound=2.0, done=False)
        done = WindowReply(next_bound=2.0, done=True)
        link.send(1, ("reply", more))
        assert link.receive(1) == ("window", REPORT)
        link.send(1, ("reply", done))
        assert link.receive(1) == ("result", "fragment")
        assert (sessions[0].steps, sessions[1].steps) == ([], [more, done])
        assert not sessions[0].telemetry_closed and sessions[1].telemetry_closed

    def test_an_aborted_inline_shard_closes_its_trace_and_steps_no_further(
        self, monkeypatch
    ):
        sessions = _worker(monkeypatch)
        link = _InlineLink(None, plan_shards(small_config(), 2))
        link.start()
        link.send(0, ("abort", None))
        assert sessions[0].telemetry_closed and sessions[0].steps == []
        assert link.receive(0) == ("window", REPORT)
        assert not sessions[1].telemetry_closed

    def test_a_process_link_join_skips_workers_that_never_started(self):
        link = _ProcessLink(None, plan_shards(small_config(), 2))
        try:
            link.join(0.1)  # the abort path after a failed start; must not raise
        finally:
            for child_end in link._child_ends:
                child_end.close()
        assert all(worker.pid is None for worker in link._workers)

    def test_a_process_worker_forwards_a_traceback_even_of_an_unpicklable_error(
        self, monkeypatch
    ):
        import multiprocessing

        class Exploding(ScriptedSession):
            def open(self):
                raise RuntimeError("boom", threading.Lock())

        sessions = _worker(monkeypatch, Exploding)
        coordinator_end, worker_end = multiprocessing.Pipe()
        try:
            _serve_shard(_PipeChannel(worker_end), None, 0, None)
            tag, payload = _PipeChannel(coordinator_end).get()
        finally:
            coordinator_end.close()
            worker_end.close()
        assert tag == "error"
        assert payload.startswith("Traceback (most recent call last):")
        assert "RuntimeError: ('boom', <unlocked _thread.lock object" in payload
        assert sessions[0].telemetry_closed

    def test_pipe_frames_are_pickle_protocol_5(self):
        import multiprocessing

        datagram = (2.0, 0, 1, message(0, 2))
        coordinator_end, worker_end = multiprocessing.Pipe()
        try:
            reply = WindowReply(next_bound=4.0, done=False, inbound=[encode_batch([datagram])])
            _PipeChannel(coordinator_end).put(("reply", reply))
            frame = worker_end.recv_bytes()
        finally:
            coordinator_end.close()
            worker_end.close()
        assert frame[:2] == b"\x80\x05"  # PROTO opcode, protocol 5
        tag, received = pickle.loads(frame)
        assert tag == "reply" and (received.next_bound, received.done) == (4.0, False)
        assert [decode_batch(batch) for batch in received.inbound] == [[datagram]]

    def test_a_message_out_of_turn_is_a_protocol_error(self):
        assert _receive(FakeLink(("window", REPORT)), 0, "window") is REPORT
        with pytest.raises(
            ShardProtocolError, match=r"^shard 1 sent 'result' where 'window' was due$"
        ):
            _receive(FakeLink(("result", "fragment")), 1, "window")

    def test_an_error_message_raises_the_traceback_naming_the_shard(self):
        with pytest.raises(ShardProtocolError) as raised:
            _receive(FakeLink(("error", "Traceback ...\nRuntimeError: boom\n")), 1, "window")
        assert str(raised.value) == "shard 1 raised:\nTraceback ...\nRuntimeError: boom\n"
