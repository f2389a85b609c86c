"""Chrome/Perfetto ``trace_event`` export.

Turns a ``repro.telemetry/1`` JSONL trace into the JSON object format both
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* every **node** becomes a thread track (``pid 0``, ``tid = node id``) via
  ``M``-phase metadata events, with the source named explicitly;
* every accepted **datagram** becomes a complete (``X``) slice on its
  sender's track spanning the upload-serialization interval, plus a flow
  arrow (``s`` → ``f``) to the tiny slice at its delivery (or loss /
  dead-receiver drop), keyed by the deterministic datagram seq ``d``;
* congestion drops, blocked sends, protocol rounds, first-time packet
  deliveries and churn transitions become instant (``i``) events on the
  track they concern;
* the stream geometry in the trace header synthesizes **window-deadline
  markers**: one process-scoped instant per FEC window at its last
  packet's publish time.

Timestamps are microseconds (the ``trace_event`` unit); simulated seconds
are scaled by 1e6.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.telemetry.schema import TraceHeader, iter_events, read_header

_PID = 0
#: Minimum slice duration in microseconds so zero-length slices stay visible.
_MIN_DUR_US = 1


def _us(seconds: float) -> int:
    return round(seconds * 1_000_000)


def _slice(tid: int, ts: float, dur_us: int, name: str, cat: str, **args) -> Dict[str, Any]:
    event = {
        "ph": "X",
        "pid": _PID,
        "tid": tid,
        "ts": _us(ts),
        "dur": max(dur_us, _MIN_DUR_US),
        "name": name,
        "cat": cat,
    }
    if args:
        event["args"] = args
    return event


def _instant(tid: int, ts: float, name: str, cat: str, scope: str = "t", **args) -> Dict[str, Any]:
    event = {
        "ph": "i",
        "pid": _PID,
        "tid": tid,
        "ts": _us(ts),
        "name": name,
        "cat": cat,
        "s": scope,
    }
    if args:
        event["args"] = args
    return event


def _flow(phase: str, flow_id: int, tid: int, ts: float) -> Dict[str, Any]:
    event = {
        "ph": phase,
        "pid": _PID,
        "tid": tid,
        "ts": _us(ts),
        "id": flow_id,
        "name": "datagram",
        "cat": "flow",
    }
    if phase == "f":
        event["bp"] = "e"  # bind to the enclosing slice
    return event


def _thread_metadata(node_ids: Iterable[int]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _PID,
            "name": "process_name",
            "args": {"name": "repro streaming session"},
        }
    ]
    for node_id in sorted(node_ids):
        label = "source (node 0)" if node_id == 0 else f"node {node_id}"
        events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": node_id,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
    return events


def _window_markers(header: TraceHeader) -> List[Dict[str, Any]]:
    stream = header.meta.get("stream")
    if not isinstance(stream, dict):
        return []
    try:
        num_windows = int(stream["num_windows"])
        window_duration = float(stream["window_duration"])
    except (KeyError, TypeError, ValueError):
        return []
    markers = []
    for window in range(num_windows):
        deadline = (window + 1) * window_duration
        markers.append(
            _instant(
                0,
                deadline,
                f"window {window} published",
                "stream",
                scope="p",
                window=window,
            )
        )
    return markers


def perfetto_events(
    header: TraceHeader, events: Iterable[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for a header + event stream.

    ``dispatch`` events are deliberately not rendered — at one per
    simulation event they would dwarf every track; the summary table covers
    them.
    """
    out: List[Dict[str, Any]] = []
    node_ids = set()
    num_nodes = header.meta.get("num_nodes")
    if isinstance(num_nodes, int):
        node_ids.update(range(num_nodes))
    body: List[Dict[str, Any]] = []
    for event in events:
        kind = event["k"]
        time = event["t"]
        if kind == "send":
            sender, receiver = event["snd"], event["rcv"]
            node_ids.update((sender, receiver))
            duration = _us(event["fin"]) - _us(time)
            body.append(
                _slice(
                    sender,
                    time,
                    duration,
                    f"send {event['mk']}",
                    "net",
                    to=receiver,
                    bytes=event["sz"],
                    d=event["d"],
                )
            )
            body.append(_flow("s", event["d"], sender, time))
        elif kind == "deliver_msg":
            receiver = event["rcv"]
            node_ids.add(receiver)
            body.append(
                _slice(
                    receiver,
                    time,
                    _MIN_DUR_US,
                    f"recv {event['mk']}",
                    "net",
                    frm=event["snd"],
                    bytes=event["sz"],
                    d=event["d"],
                )
            )
            if event["d"] >= 0:
                body.append(_flow("f", event["d"], receiver, time))
        elif kind in ("loss", "drop_dead"):
            receiver = event["rcv"]
            node_ids.add(receiver)
            label = "lost in flight" if kind == "loss" else "receiver dead"
            body.append(
                _slice(
                    receiver,
                    time,
                    _MIN_DUR_US,
                    f"{label} ({event['mk']})",
                    "net.drop",
                    frm=event["snd"],
                    d=event["d"],
                )
            )
            if event["d"] >= 0:
                body.append(_flow("f", event["d"], receiver, time))
        elif kind in ("drop_congestion", "send_blocked"):
            sender = event["snd"]
            node_ids.add(sender)
            label = "congestion drop" if kind == "drop_congestion" else "send blocked"
            body.append(
                _instant(
                    sender,
                    time,
                    f"{label} ({event['mk']})",
                    "net.drop",
                    to=event["rcv"],
                )
            )
        elif kind == "packet":
            node = event["n"]
            node_ids.add(node)
            body.append(
                _instant(node, time, f"packet {event['p']}", "stream", p=event["p"])
            )
        elif kind == "round":
            node_ids.add(event["n"])
            body.append(
                _instant(event["n"], time, "gossip round", "proto", partners=event["np"])
            )
        elif kind == "feed_me_round":
            node_ids.add(event["n"])
            body.append(
                _instant(event["n"], time, "feed-me round", "proto", targets=event["nt"])
            )
        elif kind == "node_failed":
            node_ids.add(event["n"])
            body.append(_instant(event["n"], time, "node failed", "churn", scope="p"))
        elif kind == "node_recovered":
            node_ids.add(event["n"])
            body.append(_instant(event["n"], time, "node recovered", "churn", scope="p"))
    out.extend(_thread_metadata(node_ids))
    out.extend(_window_markers(header))
    out.extend(body)
    return out


def export_perfetto(
    trace_path: Union[str, Path], out_path: Optional[Union[str, Path]] = None
) -> Path:
    """Convert a trace file; returns the written path.

    ``out_path`` defaults to the trace path with a ``.perfetto.json``
    suffix.  The output is a standard ``trace_event`` JSON object —
    drag-and-drop it into https://ui.perfetto.dev or ``chrome://tracing``.
    """
    trace_path = Path(trace_path)
    if out_path is None:
        out_path = trace_path.with_suffix(".perfetto.json")
    out_path = Path(out_path)
    header = read_header(trace_path)
    document = {
        "traceEvents": perfetto_events(header, iter_events(trace_path)),
        "displayTimeUnit": "ms",
        "otherData": {"schema": header.schema, "source": str(trace_path)},
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return out_path


__all__ = ["export_perfetto", "perfetto_events"]
