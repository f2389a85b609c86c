"""Drive K shard workers through lockstep window rounds and merge the results.

The coordinator is deliberately thin: it never inspects simulation state,
only window bookkeeping.  Each round it gathers one :class:`WindowReport`
per shard, forwards the pre-split outbound batches to their destination
shards (validating every datagram's routing on the way), and computes each
shard's next window bound from the reported peek times.

**Adaptive window widening.**  The original runner advanced every shard to
the same bound ``min(until, t_min + lookahead)`` where ``t_min`` is the
global earliest pending-event time.  That is correct but pessimistic: shard
``k`` cannot be influenced before

* ``min_{j != k} p_j + lookahead`` — another shard's earliest pending event
  sends a datagram that needs at least one cross-shard hop, or
* ``p_k + 2 * lookahead`` — shard ``k``'s *own* earliest event is reflected
  back through some other shard (one hop out, one hop back; longer chains
  arrive later and are dominated by these two terms),

where ``p_j`` is shard ``j``'s earliest pending time *including* the
datagrams routed to it this round, and ``lookahead`` (``L`` below) is the
plan's greatest lower bound on the delay of any datagram that *crosses*
shards (:func:`repro.shard.partition.plan_shards`) — wider than the
transport's global minimum latency, which intra-shard hops may still
undercut.  The argument only ever counts cross-shard hops: a chain from an
event on shard ``j`` to shard ``k`` crosses a shard boundary at least once
(twice when ``j == k`` and it leaves at all), every crossing costs ``>= L``,
and the intra-shard hops in between cost ``>= 0`` — so multi-hop chains stay
dominated whatever the hops inside a shard cost.  Each shard therefore gets its own bound
``min(until, min_{j != k} p_j + L, p_k + 2L)`` — never smaller than the old
common bound (both terms are ``>= t_min + L``), and strictly wider for the
shard that holds the globally earliest work whenever the other shards are
quiet.  When cross-shard traffic is sparse this cuts the number of barrier
rounds; a single-shard run needs no barriers at all and jumps straight to
the horizon.  The coordinator records the bound it issues to each shard and
verifies the next round's reports against them.

Every quantity in the formula is derived from the config once, before any
worker starts (placement, lookahead, horizon), or reported by the workers
(peeks, batch delivery times), so workers in other processes reach
bit-identical window sequences with no shared memory.  The coordinator also
checks the one assumption the proof rests on: a datagram due below the bound
its destination shard has already executed means the lookahead was too wide,
and ends the run with an error naming both shards.

Once a shard's bound reaches the horizon it enters the *drain loop*: it
executes inclusively up to ``until`` and keeps exchanging until a round
moves no datagrams, every shard is at the horizon, and no shard holds an
event at or below it.

Two runner modes share all of this logic through a channel object with one
method (``exchange(report) -> reply``):

* ``thread`` — workers are daemon threads, channels are queue pairs.  The
  default: Python threads interleave rather than parallelize, but they add
  no pickling or process-spawn cost, which keeps the equivalence suite and
  small sessions fast.
* ``process`` — workers are OS processes, channels are pipes carrying
  pickle-protocol-5 frames.  Real parallelism; the per-window serialization
  cost is the compact wire format's to keep down (:mod:`repro.shard.wire`).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import traceback
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.session import SessionConfig, SessionResult
from repro.metrics.delivery import DeliveryLog
from repro.network.stats import TrafficStats
from repro.streaming.schedule import StreamSchedule

from repro.shard.partition import ShardPlan, plan_shards
from repro.shard.session import (
    ShardResult,
    WindowReply,
    WindowReport,
    run_shard_worker,
    session_horizon,
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
        #: Bounds issued last round, by shard id (``None`` until round one —
        #: the first bound is computed identically by every shard backend).
        self._issued: Optional[List[float]] = None
        self.rounds = 0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_bounds(self, reports: List[WindowReport]) -> None:
        if self._issued is None:
            bound = reports[0].bound
            for report in reports:
                if report.bound != bound:
                    raise ShardProtocolError(
                        f"window bounds diverged: shard {report.shard_id} is at "
                        f"{report.bound!r}, shard {reports[0].shard_id} at {bound!r}"
                    )
            return
        for report in reports:
            issued = self._issued[report.shard_id]
            if report.bound != issued:
                raise ShardProtocolError(
                    f"window bounds diverged: shard {report.shard_id} reported "
                    f"bound {report.bound!r}, coordinator issued {issued!r}"
                )

    def _validate_batch(
        self, report: WindowReport, dest: int, batch: WireBatch, executed: List[float]
    ) -> Optional[float]:
        """Check one outbound batch; return its earliest delivery time.

        A corrupted or misrouted batch must surface as a diagnosable
        :class:`ShardProtocolError` naming the shard and datagram, never as
        a bare ``IndexError``/``KeyError`` from the lookup table — and a
        datagram due before ``executed[dest]``, the bound its destination has
        already run to, as a lookahead violation here rather than a
        ``SimulationTimeError`` inside that worker.
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
        dest_bound = executed[dest]
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
        """One coordination round: route batches, pick per-shard next bounds."""
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

        by_shard = sorted(reports, key=lambda report: report.shard_id)
        executed = [report.bound for report in by_shard]
        inbound: List[List[WireBatch]] = [[] for _ in range(self._num_shards)]
        earliest_inbound: List[Optional[float]] = [None] * self._num_shards
        moved = False
        for report in reports:
            for dest, batch in report.outbound.items():
                if batch.count == 0:
                    continue
                earliest = self._validate_batch(report, dest, batch, executed)
                moved = True
                inbound[dest].append(batch)
                if earliest is not None and (
                    earliest_inbound[dest] is None or earliest < earliest_inbound[dest]
                ):
                    earliest_inbound[dest] = earliest

        # Effective earliest pending time per shard: its own queue peek plus
        # anything just routed to it.  This is the quantity the widening
        # proof (module docstring) is stated over.
        pending: List[Optional[float]] = []
        for report in by_shard:
            candidates = [
                time
                for time in (report.peek_time, earliest_inbound[report.shard_id])
                if time is not None
            ]
            pending.append(min(candidates) if candidates else None)

        until = self._until
        t_min = min((time for time in pending if time is not None), default=None)
        at_horizon = all(report.bound == until for report in reports)
        if at_horizon and not moved and (t_min is None or t_min > until):
            # Drain loop complete: nothing moved, every shard sits at the
            # horizon, and all remaining events lie strictly past it (they
            # stay pending, exactly as in a scalar run).
            self._issued = [until] * self._num_shards
            return [
                WindowReply(next_bound=until, done=True, inbound=inbound[shard_id])
                for shard_id in range(self._num_shards)
            ]

        lookahead = self._lookahead
        next_bounds: List[float] = []
        for shard_id in range(self._num_shards):
            others = min(
                (
                    time
                    for other, time in enumerate(pending)
                    if other != shard_id and time is not None
                ),
                default=None,
            )
            own = pending[shard_id]
            horizon_candidates: List[float] = []
            if others is not None:
                horizon_candidates.append(others + lookahead)
            if own is not None and self._num_shards > 1:
                horizon_candidates.append(own + 2.0 * lookahead)
            bound = until if not horizon_candidates else min(until, min(horizon_candidates))
            # The widening proof guarantees monotonicity; the max() keeps a
            # shard that already ran its inclusive horizon stretch from ever
            # being handed a smaller bound again.
            next_bounds.append(max(bound, executed[shard_id]))
        self._issued = next_bounds
        return [
            WindowReply(
                next_bound=next_bounds[shard_id], done=False, inbound=inbound[shard_id]
            )
            for shard_id in range(self._num_shards)
        ]


# ----------------------------------------------------------------------
# Thread mode
# ----------------------------------------------------------------------
#: Seconds to wait for worker threads/processes to wind down after an abort.
_ABORT_JOIN_TIMEOUT = 5.0

#: Seconds the thread-mode coordinator waits on its inbox between checks
#: that every unfinished worker thread is still alive.
_LIVENESS_POLL_SECONDS = 0.5


class _ThreadChannel:
    """Worker-side barrier endpoint backed by queue pairs.

    Every message on the coordinator's inbox has the same shape —
    ``(tag, shard_id, payload)`` — whether it is a window report, a
    completion notice or a worker error.  (An earlier revision sent
    2-tuples for reports and 3-tuples for everything else; the dual shape
    hid a malformed-message class once and is gone for good.)
    """

    def __init__(self, shard_id: int, inbox: "queue.Queue", replies: "queue.Queue") -> None:
        self._shard_id = shard_id
        self._inbox = inbox
        self._replies = replies

    def exchange(self, report: WindowReport) -> WindowReply:
        self._inbox.put(("window", self._shard_id, report))
        reply = self._replies.get()
        if reply is None:  # poison pill: another shard failed
            raise ShardProtocolError("sharded run aborted")
        return reply


def _run_threaded(config: SessionConfig, plan: ShardPlan) -> Tuple[List[ShardResult], int]:
    """Run every shard as a thread; return the fragments and the round count."""
    num_shards = plan.num_shards
    inbox: "queue.Queue" = queue.Queue()
    reply_queues: List["queue.Queue"] = [queue.Queue() for _ in range(num_shards)]
    results: List[Optional[ShardResult]] = [None] * num_shards

    def worker(shard_id: int) -> None:
        channel = _ThreadChannel(shard_id, inbox, reply_queues[shard_id])
        try:
            results[shard_id] = run_shard_worker(config, shard_id, plan, channel)
            inbox.put(("done", shard_id, None))
        except BaseException as exc:  # noqa: BLE001 — forwarded to the caller
            inbox.put(("error", shard_id, exc))

    threads = [
        threading.Thread(target=worker, args=(shard_id,), daemon=True, name=f"shard-{shard_id}")
        for shard_id in range(num_shards)
    ]
    for thread in threads:
        thread.start()

    def abort(cause: BaseException) -> "NoReturn":  # noqa: F821 — doc only
        # Poison-pill every reply queue so blocked workers wake and exit,
        # then join them: a failed run must not leak daemon threads stuck in
        # queue.get() for the life of a pytest or sweep process.  The
        # original worker exception is re-raised, not wrapped — the caller
        # debugs the actual failure, not a generic protocol error.
        for reply_queue in reply_queues:
            reply_queue.put(None)
        for thread in threads:
            thread.join(timeout=_ABORT_JOIN_TIMEOUT)
        raise cause

    finished: List[int] = []

    def receive() -> Tuple[str, int, object]:
        # A thread that dies before its ``try`` (a raising profile hook, say)
        # never reports; the process-mode sentinel has no thread equivalent,
        # so poll.  Liveness is read before emptiness: a thread's last
        # message is queued before it exits, so a dead thread and an empty
        # inbox mean that message will never come.
        while True:
            try:
                return inbox.get(timeout=_LIVENESS_POLL_SECONDS)
            except queue.Empty:
                dead = [
                    shard_id
                    for shard_id, thread in enumerate(threads)
                    if shard_id not in finished and not thread.is_alive()
                ]
                if dead and inbox.empty():
                    abort(ShardProtocolError(f"shard {dead[0]} died without reporting"))

    coordinator = _Coordinator(plan, session_horizon(config))
    done = False
    while not done:
        reports: Dict[int, WindowReport] = {}
        while len(reports) < num_shards:
            tag, shard_id, payload = receive()
            if tag == "error":
                abort(payload)
            if tag != "window":
                abort(
                    ShardProtocolError(
                        f"shard {shard_id} finished before the coordinator released it"
                    )
                )
            reports[payload.shard_id] = payload
        try:
            round_replies = coordinator.replies([reports[i] for i in range(num_shards)])
        except ShardProtocolError as exc:
            abort(exc)
        for shard_id, reply in enumerate(round_replies):
            reply_queues[shard_id].put(reply)
        done = round_replies[0].done

    while len(finished) < num_shards:
        tag, shard_id, payload = receive()
        if tag == "error":
            abort(payload)
        if tag == "window":
            abort(ShardProtocolError(f"shard {shard_id} kept running after completion"))
        finished.append(shard_id)
    for thread in threads:
        thread.join()
    return [result for result in results if result is not None], coordinator.rounds


# ----------------------------------------------------------------------
# Process mode
# ----------------------------------------------------------------------
class _ShardAborted(BaseException):
    """Internal: coordinator told this worker to stop (peer failure)."""


def _send(connection, obj) -> None:
    """Ship one protocol message as a pickle-protocol-5 frame.

    ``Connection.send`` pickles at the interpreter's default protocol;
    framing explicitly at protocol 5 keeps the compact wire batches' flat
    buffers on the cheapest (out-of-band-capable) encoding on every
    supported Python version.
    """
    connection.send_bytes(pickle.dumps(obj, protocol=5))


def _recv(connection):
    return pickle.loads(connection.recv_bytes())


class _PipeChannel:
    """Worker-side barrier endpoint backed by one end of a pipe."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def exchange(self, report: WindowReport) -> WindowReply:
        _send(self._connection, ("window", report))
        tag, payload = _recv(self._connection)
        if tag == "abort":
            raise _ShardAborted()
        if tag != "reply":
            raise ShardProtocolError(f"unexpected coordinator message {tag!r}")
        return payload


def _process_worker_main(config, shard_id, plan, connection) -> None:
    try:
        result = run_shard_worker(config, shard_id, plan, _PipeChannel(connection))
        _send(connection, ("result", result))
    except _ShardAborted:
        pass
    except BaseException:  # noqa: BLE001 — serialized back to the parent
        try:
            _send(connection, ("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        connection.close()


def _run_processes(config: SessionConfig, plan: ShardPlan) -> Tuple[List[ShardResult], int]:
    """Run every shard as a process; return the fragments and the round count."""
    num_shards = plan.num_shards
    context = multiprocessing.get_context()
    pipes = [context.Pipe() for _ in range(num_shards)]
    workers = [
        context.Process(
            target=_process_worker_main,
            args=(config, shard_id, plan, pipes[shard_id][1]),
            name=f"shard-{shard_id}",
        )
        for shard_id in range(num_shards)
    ]
    for worker, (_, child_end) in zip(workers, pipes):
        worker.start()
        child_end.close()  # parent keeps only its end
    connections = [parent_end for parent_end, _ in pipes]

    def abort(detail: str) -> "NoReturn":  # noqa: F821 — doc only
        for connection in connections:
            try:
                _send(connection, ("abort", None))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.join(timeout=_ABORT_JOIN_TIMEOUT)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=_ABORT_JOIN_TIMEOUT)
        raise ShardProtocolError(f"sharded run failed: {detail}")

    def receive(shard_id: int):
        # Wait on the worker's exit sentinel alongside its pipe: EOF alone
        # cannot be trusted to surface a dead worker, because with the fork
        # start method sibling workers inherit (and keep open) this pipe's
        # write end, so the parent's recv would block forever.
        connection = connections[shard_id]
        worker = workers[shard_id]
        ready = mp_connection.wait([connection, worker.sentinel])
        if connection in ready or connection.poll(0):
            try:
                return _recv(connection)
            except EOFError:
                abort(f"shard {shard_id} died without reporting")
        # Sentinel only: the process exited without leaving a message.
        abort(
            f"shard {shard_id} died without reporting (exit code {worker.exitcode})"
        )

    try:
        coordinator = _Coordinator(plan, session_horizon(config))
        done = False
        while not done:
            reports: List[WindowReport] = []
            for shard_id in range(num_shards):
                tag, payload = receive(shard_id)
                if tag == "error":
                    abort(f"shard {shard_id} raised:\n{payload}")
                if tag != "window":
                    abort(f"shard {shard_id} sent {tag!r} mid-run")
                reports.append(payload)
            try:
                round_replies = coordinator.replies(reports)
            except ShardProtocolError as exc:
                abort(str(exc))
            for shard_id, reply in enumerate(round_replies):
                _send(connections[shard_id], ("reply", reply))
            done = round_replies[0].done

        results: List[ShardResult] = []
        for shard_id in range(num_shards):
            tag, payload = receive(shard_id)
            if tag == "error":
                abort(f"shard {shard_id} raised:\n{payload}")
            if tag != "result":
                abort(f"shard {shard_id} sent {tag!r} instead of its result")
            results.append(payload)
    finally:
        for connection in connections:
            connection.close()
    for worker in workers:
        worker.join()
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


def execute_sharded(
    config: SessionConfig, shards: Optional[int] = None, mode: str = "thread"
) -> ShardedRun:
    """Run ``config`` partitioned across shard workers; merge the fragments.

    Parameters
    ----------
    config:
        The session to run.  ``config.shards`` supplies the shard count when
        the ``shards`` argument is ``None``; if both are given, the argument
        wins and the config is re-stamped so workers see the same value.
    shards:
        Optional shard-count override (must be ``>= 1``).
    mode:
        ``"thread"`` (default; no pickling, interleaved execution) or
        ``"process"`` (true parallelism, per-window wire serialization).

    Placement and lookahead are derived here, once
    (:func:`~repro.shard.partition.plan_shards`), and the same plan goes to
    the coordinator, every worker and the merge.
    """
    num_shards = shards if shards is not None else config.shards
    if num_shards is None:
        raise ValueError("run_sharded needs a shard count (argument or config.shards)")
    if num_shards < 1:
        raise ValueError(f"shards must be >= 1, got {num_shards!r}")
    if mode not in ("thread", "process"):
        raise ValueError(f"unknown sharded runner mode {mode!r} (thread/process)")
    if config.shards != num_shards:
        config = replace(config, shards=num_shards)
    plan = plan_shards(config, num_shards)
    run_workers = _run_threaded if mode == "thread" else _run_processes
    fragments, rounds = run_workers(config, plan)
    return ShardedRun(merge_shard_results(config, plan, fragments), plan, rounds)


def run_sharded(
    config: SessionConfig, shards: Optional[int] = None, mode: str = "thread"
) -> SessionResult:
    """:func:`execute_sharded`, keeping only the merged result.

    Returns the same :class:`~repro.core.session.SessionResult` a scalar
    ``StreamingSession(config).run()`` of the identical config produces —
    byte-identical for any shard count and either mode.
    """
    return execute_sharded(config, shards, mode).result
