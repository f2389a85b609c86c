"""Perfetto exporter: valid trace_event JSON, flow pairing, window markers."""

import json

from repro.telemetry.export import export_perfetto, perfetto_events
from repro.telemetry.schema import TraceHeader, TraceWriter, read_header, iter_events

HEADER = TraceHeader(
    schema="repro.telemetry/1",
    meta={
        "num_nodes": 3,
        "stream": {
            "window_duration": 2.0,
            "num_windows": 2,
            "packets_per_window": 4,
            "end_time": 5.0,
        },
    },
)


def events_fixture():
    return [
        {"i": 0, "t": 0.5, "k": "send", "snd": 0, "rcv": 2, "mk": "serve", "sz": 1000, "d": 0, "fin": 0.51},
        {"i": 1, "t": 0.7, "k": "deliver_msg", "snd": 0, "rcv": 2, "mk": "serve", "sz": 1000, "d": 0},
        {"i": 2, "t": 0.8, "k": "send", "snd": 0, "rcv": 1, "mk": "serve", "sz": 1000, "d": 1, "fin": 0.81},
        {"i": 3, "t": 0.9, "k": "loss", "snd": 0, "rcv": 1, "mk": "serve", "sz": 1000, "d": 1},
        {"i": 4, "t": 1.0, "k": "drop_congestion", "snd": 1, "rcv": 2, "mk": "propose", "sz": 40},
        {"i": 5, "t": 1.1, "k": "packet", "n": 2, "p": 0, "source": False},
        {"i": 6, "t": 1.2, "k": "round", "n": 1, "np": 7},
        {"i": 7, "t": 1.3, "k": "node_failed", "n": 2},
        {"i": 8, "t": 1.4, "k": "dispatch", "fn": "GossipNode._on_gossip_round"},
    ]


class TestPerfettoEvents:
    def test_thread_metadata_names_every_node_and_the_source(self):
        events = perfetto_events(HEADER, events_fixture())
        metadata = [event for event in events if event["ph"] == "M"]
        names = {
            event.get("tid"): event["args"]["name"]
            for event in metadata
            if event["name"] == "thread_name"
        }
        assert names[0] == "source (node 0)"
        assert names[1] == "node 1" and names[2] == "node 2"
        assert any(event["name"] == "process_name" for event in metadata)

    def test_send_becomes_slice_with_flow_start(self):
        events = perfetto_events(HEADER, events_fixture())
        slices = [event for event in events if event["ph"] == "X" and event["name"] == "send serve"]
        assert len(slices) == 2
        assert slices[0]["tid"] == 0
        assert slices[0]["ts"] == 500_000
        assert slices[0]["dur"] >= 1
        starts = [event for event in events if event["ph"] == "s"]
        assert {event["id"] for event in starts} == {0, 1}

    def test_delivery_and_loss_close_their_flows(self):
        events = perfetto_events(HEADER, events_fixture())
        finishes = [event for event in events if event["ph"] == "f"]
        assert {event["id"] for event in finishes} == {0, 1}
        assert all(event["bp"] == "e" for event in finishes)
        # Flow 0 finishes on the receiving node's track.
        delivered = next(event for event in finishes if event["id"] == 0)
        assert delivered["tid"] == 2

    def test_window_deadline_markers_from_header_geometry(self):
        events = perfetto_events(HEADER, events_fixture())
        markers = [event for event in events if event.get("cat") == "stream" and "window" in event["name"]]
        assert len(markers) == 2
        assert markers[0]["ts"] == 2_000_000  # 1 * window 2.0
        assert markers[1]["ts"] == 4_000_000
        assert all(event["s"] == "p" for event in markers)

    def test_dispatch_events_are_skipped(self):
        events = perfetto_events(HEADER, events_fixture())
        assert not any("dispatch" in str(event.get("name", "")) for event in events)

    def test_instants_for_drops_rounds_and_churn(self):
        events = perfetto_events(HEADER, events_fixture())
        names = [event["name"] for event in events if event["ph"] == "i"]
        assert "congestion drop (propose)" in names
        assert "gossip round" in names
        assert "node failed" in names
        assert "packet 0" in names


class TestExportPerfetto:
    def _write_trace(self, path):
        with TraceWriter(path, meta=HEADER.meta) as writer:
            for event in events_fixture():
                fields = {
                    key: value
                    for key, value in event.items()
                    if key not in ("i", "t", "k")
                }
                writer.append(event["k"], event["t"], **fields)
        return path

    def test_export_writes_loadable_json(self, tmp_path):
        trace = self._write_trace(tmp_path / "t.jsonl")
        out = export_perfetto(trace)
        assert out == tmp_path / "t.perfetto.json"
        document = json.loads(out.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["schema"] == "repro.telemetry/1"
        assert len(document["traceEvents"]) > len(events_fixture()) - 1

    def test_export_honours_out_path(self, tmp_path):
        trace = self._write_trace(tmp_path / "t.jsonl")
        out = export_perfetto(trace, tmp_path / "sub" / "custom.json")
        assert out.exists()

    def test_export_matches_in_memory_conversion(self, tmp_path):
        trace = self._write_trace(tmp_path / "t.jsonl")
        document = json.loads(export_perfetto(trace).read_text())
        expected = perfetto_events(read_header(trace), iter_events(trace))
        assert document["traceEvents"] == json.loads(json.dumps(expected))
