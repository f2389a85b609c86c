"""Drive K shard workers through lockstep window rounds and merge the results.

The coordinator is deliberately thin: it never inspects simulation state,
only window bookkeeping.  Each round it gathers one :class:`WindowReport`
per shard, forwards the pre-split outbound batches to their destination
shards (validating every datagram's routing on the way), and issues every
shard the same next window bound.

**The window bound.**  Every shard has run each event strictly below the
common bound ``B``.  Let ``t_min`` be the earliest instant any shard can
*send*: the earliest of the shards' pending events and of the datagrams
routed this round.  A node with nothing to propose queues no gossip tick,
so a shard whose nodes all wait for a datagram has an empty queue and
reports no pending event (``WindowReport.peek_time`` is ``None``): only a
delivery — the routed datagrams, already counted — gives a node something
to propose.
``lookahead`` (``L`` below) is the plan's greatest lower bound on the delay
of any datagram that *crosses* shards
(:func:`repro.shard.partition.plan_shards`) — wider than the transport's
global minimum latency, which intra-shard hops may still undercut.
Nothing is sent before ``t_min``, and a datagram sent at or after it to
another shard is due at or after ``t_min + L``; a longer chain crosses at
least once and only adds hops.  So every shard may run every event below
the next bound ``min(until, t_min + L)`` (Chandy–Misra lookahead in one
synchronous window, Lubachevsky's bounded lag).  The bound never falls:
every peek and every routed datagram is at or after ``B``.  A single-shard
run needs no barriers at all and jumps straight to the horizon, and so does
every shard once none can send: the drain after the stream, where no node
has anything to propose, is one window.  The
first bound, ``min(until, L)``, every shard computes alone; the
coordinator verifies every report against the bound it expects.

Every quantity in the formula is derived from the config once, before any
worker starts (placement, lookahead, horizon), or reported by the workers
(peeks, batch delivery times), so workers in other processes reach
bit-identical window sequences with no shared memory.  The coordinator also
checks the assumptions the argument rests on: a datagram due below the
bound its destination shard has already executed means the lookahead was
too wide (or a shard reported no pending event while it could still send),
and ends the run with an error naming both shards.

Once the bound reaches the horizon the shards enter the *drain loop*:
they execute inclusively up to ``until`` and keep exchanging until a round
moves no datagrams and no shard holds an event at or below the horizon.

One coordinator loop (``_run_workers``) drives both runner modes: collect
a report from every shard, answer each with its reply, repeat until the
round is done, then collect the results; any failure aborts every shard —
closing its trace where it stopped — and joins every worker before it
propagates.  Both modes run the same window loop
(:meth:`~repro.shard.session.ShardSession.open`, ``step``, ``close``) and
differ only in the *link* the coordinator talks through — start the
shards, receive from a shard, send to it, join:

* ``thread`` — every shard session lives in the calling thread; sending a
  reply steps that shard at once.  No thread is started and nothing is
  pickled, and a shard's exception propagates as itself.
* ``process`` — workers are OS processes, each shard a pipe carrying
  pickle-protocol-5 frames, watched with the process sentinel; a worker's
  exception arrives as a :class:`ShardProtocolError` carrying its traceback.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from multiprocessing import connection as mp_connection
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.session import SessionConfig, SessionResult, session_horizon
from repro.metrics.delivery import DeliveryLog
from repro.network.stats import TrafficStats
from repro.streaming.schedule import StreamSchedule

from repro.shard.partition import ShardPlan, plan_shards
from repro.shard.session import (
    ShardResult,
    ShardSession,
    WindowReply,
    WindowReport,
)
from repro.shard.wire import WireBatch, iter_headers


class ShardProtocolError(RuntimeError):
    """A shard violated the window protocol or died mid-run."""


class _Coordinator:
    """Pure window bookkeeping: reports in, replies out, no I/O."""

    def __init__(self, plan: ShardPlan, until: float) -> None:
        self._num_shards = plan.num_shards
        self._lookup = plan.lookup
        self._until = until
        self._lookahead = plan.lookahead
        #: The bound every shard's next report must carry; the first, one
        #: lookahead from the start, each shard computes alone.
        self._bound = min(until, plan.lookahead)
        self.rounds = 0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_bounds(self, reports: List[WindowReport]) -> None:
        for report in reports:
            if report.bound != self._bound:
                raise ShardProtocolError(
                    f"window bounds diverged: shard {report.shard_id} reported "
                    f"bound {report.bound!r}, coordinator issued {self._bound!r}"
                )

    def _validate_batch(
        self, report: WindowReport, dest: int, batch: WireBatch
    ) -> Optional[float]:
        """Check one outbound batch; return its earliest delivery time.

        A corrupted or misrouted batch must surface as a diagnosable
        :class:`ShardProtocolError` naming the shard and datagram, never as
        a bare ``IndexError``/``KeyError`` from the lookup table — and a
        datagram due before the bound every shard has already run to, as a
        lookahead violation here rather than a ``SimulationTimeError``
        inside that worker.
        """
        num_nodes = len(self._lookup)
        if not isinstance(dest, int) or not 0 <= dest < self._num_shards:
            raise ShardProtocolError(
                f"shard {report.shard_id} addressed a batch to invalid shard "
                f"{dest!r} ({self._num_shards} shards exist)"
            )
        if dest == report.shard_id:
            raise ShardProtocolError(
                f"shard {report.shard_id} routed a batch to itself; local "
                f"datagrams must never reach the coordinator"
            )
        dest_bound = self._bound
        earliest: Optional[float] = None
        for index, (deliver_time, sender, _seq, receiver) in enumerate(
            iter_headers(batch)
        ):
            if not 0 <= receiver < num_nodes:
                raise ShardProtocolError(
                    f"shard {report.shard_id} sent datagram #{index} for "
                    f"unknown receiver {receiver!r} ({num_nodes} nodes exist)"
                )
            if self._lookup[receiver] != dest:
                raise ShardProtocolError(
                    f"shard {report.shard_id} misrouted datagram #{index}: "
                    f"receiver {receiver} is owned by shard "
                    f"{self._lookup[receiver]}, batch was addressed to shard {dest}"
                )
            if not 0 <= sender < num_nodes or self._lookup[sender] != report.shard_id:
                raise ShardProtocolError(
                    f"shard {report.shard_id} sent datagram #{index} from "
                    f"sender {sender!r}, which it does not own"
                )
            if deliver_time < dest_bound:
                raise ShardProtocolError(
                    f"lookahead violated: shard {report.shard_id} sent shard {dest} "
                    f"datagram #{index} due at {deliver_time!r}, "
                    f"{dest_bound - deliver_time!r}s before the bound {dest_bound!r} "
                    f"shard {dest} has already executed (lookahead "
                    f"{self._lookahead!r}s is wider than this cross-shard delay)"
                )
            if earliest is None or deliver_time < earliest:
                earliest = deliver_time
        return earliest

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def replies(self, reports: List[WindowReport]) -> List[WindowReply]:
        """One coordination round: route batches, pick the next common bound."""
        if len(reports) != self._num_shards:
            raise ShardProtocolError(
                f"expected {self._num_shards} window reports, got {len(reports)}"
            )
        if sorted(report.shard_id for report in reports) != list(range(self._num_shards)):
            raise ShardProtocolError(
                f"window reports carry invalid shard ids "
                f"{[report.shard_id for report in reports]!r}"
            )
        self._check_bounds(reports)
        self.rounds += 1

        # Earliest instant any shard can send: a peek (``None`` while a shard
        # holds only silent ticks) or a datagram routed this round.
        t_min = min(
            (report.peek_time for report in reports if report.peek_time is not None),
            default=None,
        )
        inbound: List[List[WireBatch]] = [[] for _ in range(self._num_shards)]
        moved = False
        for report in reports:
            for dest, batch in report.outbound.items():
                if batch.count == 0:
                    continue
                earliest = self._validate_batch(report, dest, batch)
                moved = True
                inbound[dest].append(batch)
                if earliest is not None and (t_min is None or earliest < t_min):
                    t_min = earliest

        until = self._until
        # The drain loop is complete when nothing moved, every shard sits at
        # the horizon, and all remaining events lie strictly past it (they
        # stay pending, exactly as in a scalar run).
        done = self._bound == until and not moved and (t_min is None or t_min > until)
        if done or t_min is None or self._num_shards == 1:
            self._bound = until
        else:
            self._bound = min(until, t_min + self._lookahead)
        return [
            WindowReply(next_bound=self._bound, done=done, inbound=batches)
            for batches in inbound
        ]


# ----------------------------------------------------------------------
# Links: how the coordinator reaches its workers
# ----------------------------------------------------------------------
#: Seconds to wait for worker processes to wind down after an abort.
_ABORT_JOIN_TIMEOUT = 5.0


class _InlineLink:
    """Thread mode: every shard session stepped in the calling thread.

    No thread, no pickling: :meth:`send` runs the shard's next window at
    once and :meth:`receive` hands back what it reported.  A shard's
    exception propagates as itself out of :meth:`start` or :meth:`send`.
    """

    def __init__(self, config: SessionConfig, plan: ShardPlan) -> None:
        self._sessions = [
            ShardSession(config, shard_id, plan) for shard_id in range(plan.num_shards)
        ]
        self._pending: List[Tuple[str, object]] = []

    def start(self) -> None:
        for session in self._sessions:
            self._pending.append(("window", session.open()))

    def receive(self, shard_id: int) -> Tuple[str, object]:
        return self._pending[shard_id]

    def send(self, shard_id: int, message) -> None:
        tag, reply = message
        session = self._sessions[shard_id]
        if tag == "abort":  # keep its trace whole: close it where the run stopped
            session._close_telemetry()
            return
        report = session.step(reply)
        self._pending[shard_id] = (
            ("window", report) if report is not None else ("result", session.close())
        )

    def join(self, timeout: Optional[float] = None) -> None:
        """Nothing to join: no thread or process was started."""


class _PipeChannel:
    """Either end of a process-mode pipe, framed as pickle protocol 5.

    Every message either way is ``(tag, payload)``: a worker sends
    ``window`` reports and then its ``result`` or an ``error``; the
    coordinator answers each report with ``reply`` or ``abort``.
    ``Connection.send`` pickles at the interpreter's default protocol;
    framing explicitly at protocol 5 keeps the compact wire batches' flat
    buffers on the cheapest (out-of-band-capable) encoding on every
    supported Python version.
    """

    def __init__(self, connection) -> None:
        self.connection = connection

    def put(self, message) -> None:
        self.connection.send_bytes(pickle.dumps(message, protocol=5))

    def get(self):
        return pickle.loads(self.connection.recv_bytes())


def _serve_shard(
    channel: _PipeChannel, config: SessionConfig, shard_id: int, plan: ShardPlan
) -> None:
    """Process mode's worker: the shard's window loop, one report per reply.

    An error goes back as its formatted traceback (an exception need not
    pickle); an abort stops without another message.  Either way the
    shard's trace is closed whole before the process exits.
    """
    session = None
    try:
        session = ShardSession(config, shard_id, plan)
        report = session.open()
        while report is not None:
            channel.put(("window", report))
            tag, reply = channel.get()
            if tag == "abort":  # another shard failed
                return
            report = session.step(reply)
        channel.put(("result", session.close()))
    except BaseException:  # noqa: BLE001 — forwarded to the coordinator
        channel.put(("error", traceback.format_exc()))
    finally:
        if session is not None:
            session._close_telemetry()


class _ProcessLink:
    """Process mode: one OS process and one pipe per shard.

    Real parallelism; the per-window serialization cost is the compact wire
    format's to keep down (:mod:`repro.shard.wire`).
    """

    def __init__(self, config: SessionConfig, plan: ShardPlan) -> None:
        context = multiprocessing.get_context()
        pipes = [context.Pipe() for _ in range(plan.num_shards)]
        self._ends = [_PipeChannel(parent_end) for parent_end, _ in pipes]
        self._child_ends = [child_end for _, child_end in pipes]
        self._workers = [
            context.Process(
                target=_serve_shard,
                args=(_PipeChannel(child_end), config, shard_id, plan),
                name=f"shard-{shard_id}",
            )
            for shard_id, child_end in enumerate(self._child_ends)
        ]

    def start(self) -> None:
        for worker, child_end in zip(self._workers, self._child_ends):
            worker.start()
            child_end.close()  # parent keeps only its end

    def receive(self, shard_id: int) -> Tuple[str, object]:
        # Wait on the worker's exit sentinel alongside its pipe: EOF alone
        # cannot be trusted to surface a dead worker, because with the fork
        # start method sibling workers inherit (and keep open) this pipe's
        # write end, so the parent's recv would block forever.
        end = self._ends[shard_id]
        worker = self._workers[shard_id]
        ready = mp_connection.wait([end.connection, worker.sentinel])
        if end.connection in ready or end.connection.poll(0):
            try:
                return end.get()
            except EOFError:
                raise ShardProtocolError(f"shard {shard_id} died without reporting") from None
        # Sentinel only: the process exited without leaving a message.  The
        # sentinel can fire before the exit status is reaped; join first so
        # the error names the real exit code, not ``None``.
        worker.join(_ABORT_JOIN_TIMEOUT)
        raise ShardProtocolError(
            f"shard {shard_id} died without reporting (exit code {worker.exitcode})"
        )

    def send(self, shard_id: int, message) -> None:
        self._ends[shard_id].put(message)

    def join(self, timeout: Optional[float] = None) -> None:
        for end in self._ends:
            end.connection.close()
        for worker in self._workers:
            if worker.pid is None:  # start failed before reaching it
                continue
            worker.join(timeout)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout)


_LINKS = {"thread": _InlineLink, "process": _ProcessLink}


def _receive(link, shard_id: int, expected: str):
    """The payload of the shard's next message, which must be tagged ``expected``."""
    tag, payload = link.receive(shard_id)
    if tag == "error":  # a process worker's traceback
        raise ShardProtocolError(f"shard {shard_id} raised:\n{payload}")
    if tag != expected:
        raise ShardProtocolError(f"shard {shard_id} sent {tag!r} where {expected!r} was due")
    return payload


def _run_workers(
    config: SessionConfig, plan: ShardPlan, mode: str
) -> Tuple[List[ShardResult], int]:
    """Run every shard in ``mode``; return the fragments and the round count.

    The one coordinator loop: collect a report from every shard, answer
    each with its reply, repeat until a round is done, then collect the
    results.  Any failure — a worker error, a dead worker, a protocol
    violation — aborts every shard and joins every worker before it
    propagates, so a failed run leaks no process into a long-lived caller.
    """
    num_shards = plan.num_shards
    coordinator = _Coordinator(plan, session_horizon(config))
    link = _LINKS[mode](config, plan)
    try:
        link.start()
        done = False
        while not done:
            reports = [_receive(link, shard_id, "window") for shard_id in range(num_shards)]
            round_replies = coordinator.replies(reports)
            for shard_id, reply in enumerate(round_replies):
                link.send(shard_id, ("reply", reply))
            done = round_replies[0].done
        results = [_receive(link, shard_id, "result") for shard_id in range(num_shards)]
    except BaseException:
        for shard_id in range(num_shards):
            try:
                link.send(shard_id, ("abort", None))
            except OSError:  # that worker's pipe is already gone
                pass
        link.join(_ABORT_JOIN_TIMEOUT)
        raise
    link.join()
    return results, coordinator.rounds


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_shard_results(
    config: SessionConfig, plan: ShardPlan, fragments: List[ShardResult]
) -> SessionResult:
    """Reassemble per-shard fragments into one scalar-identical result.

    The merge relies on strict ownership: a node's deliveries, traffic cell
    and stats are recorded exclusively on its owner shard (sends are charged
    on the sender's shard, receptions happen on the receiver's shard, and a
    node plays both roles only where it lives).  Re-homing is therefore pure
    relocation — nothing is ever summed across shards except the event
    counter, which subtracts the replicated control-plane firings.
    """
    if not fragments:
        raise ValueError("cannot merge an empty list of shard results")
    fragments = sorted(fragments, key=lambda fragment: fragment.shard_id)
    num_shards = plan.num_shards
    if [fragment.shard_id for fragment in fragments] != list(range(num_shards)):
        raise ShardProtocolError(
            f"incomplete shard results: got ids "
            f"{[fragment.shard_id for fragment in fragments]!r} for {num_shards} shards"
        )
    lookup = plan.lookup

    for fragment in fragments:
        for node_id in fragment.deliveries.raw():
            if lookup[node_id] != fragment.shard_id:
                raise ShardProtocolError(
                    f"shard {fragment.shard_id} recorded deliveries for node "
                    f"{node_id}, owned by shard {lookup[node_id]}"
                )
        for node_id in fragment.traffic.raw():
            if lookup[node_id] != fragment.shard_id:
                raise ShardProtocolError(
                    f"shard {fragment.shard_id} recorded traffic for node "
                    f"{node_id}, owned by shard {lookup[node_id]}"
                )

    first = fragments[0]
    for fragment in fragments[1:]:
        if fragment.failed_nodes != first.failed_nodes:
            raise ShardProtocolError(
                "shards disagree on the failure history — the replicated "
                "control plane diverged"
            )
        if fragment.late_joiners != first.late_joiners:
            raise ShardProtocolError(
                "shards disagree on the late-joiner set — the replicated "
                "control plane diverged"
            )
        if fragment.control_events != first.control_events:
            raise ShardProtocolError(
                "shards disagree on the control-event count — the replicated "
                "control plane diverged"
            )
        if fragment.end_time != first.end_time:
            raise ShardProtocolError("shards disagree on the session end time")

    schedule = StreamSchedule(config.stream)
    deliveries = DeliveryLog(schedule)
    traffic = TrafficStats()
    node_stats = {}
    for node_id in range(config.num_nodes):
        fragment = fragments[lookup[node_id]]
        node_log = fragment.deliveries.raw().get(node_id)
        if node_log:
            # Per-node insertion order is chronological on the owner shard;
            # replaying it preserves the lag accumulators' delivery order.
            for packet_id, delivered_at in node_log.items():
                deliveries.record(node_id, packet_id, delivered_at)
        cell = fragment.traffic.raw().get(node_id)
        if cell is not None:
            traffic.adopt_cell(node_id, cell)
        stats = fragment.node_stats.get(node_id)
        if stats is not None:
            node_stats[node_id] = stats

    events_processed = (
        sum(fragment.events_processed - fragment.control_events for fragment in fragments)
        + first.control_events
    )
    telemetry = None
    if any(fragment.telemetry is not None for fragment in fragments):
        telemetry = tuple(fragment.telemetry for fragment in fragments)
    return SessionResult(
        config=config,
        schedule=schedule,
        deliveries=deliveries,
        traffic=traffic,
        node_stats=node_stats,
        failed_nodes=list(first.failed_nodes),
        events_processed=events_processed,
        end_time=first.end_time,
        late_joiners=list(first.late_joiners),
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedRun:
    """A finished sharded run: the merged result and how it was windowed."""

    result: SessionResult
    plan: ShardPlan
    #: Barrier rounds the coordinator made (every shard takes part in each).
    windows: int


def execute_sharded(config: SessionConfig, mode: str = "thread") -> ShardedRun:
    """Run ``config`` partitioned across shard workers; merge the fragments.

    Parameters
    ----------
    config:
        The session to run; ``config.shards`` (must be set, ``>= 1``) is the
        shard count.
    mode:
        ``"thread"`` (default; every shard stepped in the calling thread, no
        pickling) or ``"process"`` (true parallelism, per-window wire
        serialization).

    Placement and lookahead are derived here, once
    (:func:`~repro.shard.partition.plan_shards`), and the same plan goes to
    the coordinator, every worker and the merge.
    """
    num_shards = config.shards
    if num_shards is None:
        raise ValueError("run_sharded needs a shard count (config.shards)")
    if mode not in _LINKS:
        raise ValueError(f"unknown sharded runner mode {mode!r} (thread/process)")
    plan = plan_shards(config, num_shards)
    fragments, rounds = _run_workers(config, plan, mode)
    return ShardedRun(merge_shard_results(config, plan, fragments), plan, rounds)


def run_sharded(config: SessionConfig, mode: str = "thread") -> SessionResult:
    """:func:`execute_sharded`, keeping only the merged result.

    Returns the same :class:`~repro.core.session.SessionResult` a scalar
    ``StreamingSession(config).run()`` of the identical config produces —
    byte-identical for any shard count and either mode.
    """
    return execute_sharded(config, mode).result
