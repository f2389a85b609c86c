"""Recorder purity and determinism: armed telemetry never changes a run."""

import json
from functools import partial

from repro.core.session import SessionConfig, run_session
from repro.sweep.summary import MetricsRequest, summarize
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.diff import diff_traces
from repro.telemetry.schema import iter_events, validate_trace
from repro.telemetry.recorder import callback_name

REQUEST = MetricsRequest(
    viewing_lags=(10.0, 20.0, float("inf")),
    window_lags=(20.0,),
    lag_cdf_grid=(0.0, 10.0),
    include_usage=True,
)


def small_config(**overrides) -> SessionConfig:
    defaults = dict(num_nodes=8, seed=11)
    defaults.update(overrides)
    return SessionConfig(**defaults)


def summary_of(config: SessionConfig):
    result = run_session(config)
    return result, summarize(result, REQUEST, cell_id="t", seed=config.seed)


class TestArmedVersusDisarmed:
    def test_fully_armed_run_matches_disarmed_summary(self, tmp_path):
        _, baseline = summary_of(small_config())
        _, traced = summary_of(
            small_config(
                telemetry=TelemetryConfig(
                    metrics=True, trace_path=str(tmp_path / "t.jsonl")
                )
            )
        )
        # PointSummary equality spans every figure-facing metric; the
        # telemetry layer must be pure observation.
        assert baseline == traced

    def test_metrics_only_run_matches(self):
        _, baseline = summary_of(small_config())
        _, metered = summary_of(small_config(telemetry=TelemetryConfig(metrics=True)))
        assert baseline == metered

    def test_disarmed_config_builds_no_telemetry(self):
        result = run_session(small_config(telemetry=TelemetryConfig(metrics=False)))
        assert result.telemetry is None

    def test_snapshot_collectors_agree_with_session_accounting(self):
        result = run_session(small_config(telemetry=TelemetryConfig(metrics=True)))
        snapshot = result.telemetry
        assert snapshot.metrics["engine.events_dispatched"] == float(
            result.events_processed
        )
        assert snapshot.metrics["membership.members"] == 8.0
        assert snapshot.metrics["net.bytes_sent"] > 0


class TestTraceDeterminism:
    def test_same_config_same_seed_identical_traces_modulo_header(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            run_session(
                small_config(telemetry=TelemetryConfig(trace_path=str(tmp_path / name)))
            )
        outcome = diff_traces(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert outcome.identical, outcome.describe()
        assert outcome.events_compared > 0

    def test_trace_validates_structurally(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = run_session(small_config(telemetry=TelemetryConfig(trace_path=str(path))))
        header, count = validate_trace(path)
        assert count == result.telemetry.trace_events
        assert header.meta["seed"] == 11
        assert header.meta["num_nodes"] == 8
        assert "created_unix" in header.meta

    def test_datagram_seq_links_send_to_fate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_session(small_config(telemetry=TelemetryConfig(trace_path=str(path))))
        send_seqs = set()
        fate_seqs = set()
        for event in iter_events(path):
            name = (event.get("snd"), event.get("d"))
            if event["k"] == "send":
                assert name not in send_seqs, "datagram name reused"
                send_seqs.add(name)
            elif event["k"] in ("deliver_msg", "loss", "drop_dead"):
                fate_seqs.add(name)
        # Every terminal fate refers back to an accepted send.
        assert fate_seqs <= send_seqs
        assert len(send_seqs) > 0


class TestFiltersAndSampling:
    def test_include_kinds_filters_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_session(
            small_config(
                telemetry=TelemetryConfig(
                    trace_path=str(path), include_kinds=("packet", "round")
                )
            )
        )
        kinds = {event["k"] for event in iter_events(path)}
        assert kinds == {"packet", "round"}
        validate_trace(path)

    def test_exclude_kinds_filters_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = run_session(
            small_config(
                telemetry=TelemetryConfig(trace_path=str(path), exclude_kinds=("dispatch",))
            )
        )
        assert "dispatch" not in result.telemetry.trace_events_by_kind
        assert result.telemetry.trace_events_by_kind["send"] > 0

    def test_the_dispatch_filter_leaves_every_other_kind_unchanged(self, tmp_path):
        """The engine edge only feeds ``dispatch`` lines: with or without it
        the recorder writes the same lines of every other kind, and alone it
        writes the same dispatch lines."""
        paths = [tmp_path / f"{name}.jsonl" for name in ("full", "without", "only")]
        for path, filters in zip(
            paths,
            ({}, {"exclude_kinds": ("dispatch",)}, {"include_kinds": ("dispatch",)}),
        ):
            run_session(small_config(telemetry=TelemetryConfig(trace_path=str(path), **filters)))

        def lines(path, dispatch):
            return [
                {key: value for key, value in event.items() if key != "i"}
                for event in iter_events(path)
                if (event["k"] == "dispatch") == dispatch
            ]

        full, without, only = paths
        assert lines(without, dispatch=False) == lines(full, dispatch=False)
        assert lines(only, dispatch=True) == lines(full, dispatch=True)
        assert lines(without, dispatch=True) == lines(only, dispatch=False) == []

    def test_seq_numbers_stable_under_send_filtering(self, tmp_path):
        """``d`` is assigned at acceptance even when ``send`` lines are
        filtered out, so fates carry the same seq either way."""
        full, filtered = tmp_path / "full.jsonl", tmp_path / "filtered.jsonl"
        run_session(small_config(telemetry=TelemetryConfig(trace_path=str(full))))
        run_session(
            small_config(
                telemetry=TelemetryConfig(trace_path=str(filtered), exclude_kinds=("send",))
            )
        )
        full_fates = [
            (event["t"], event["k"], event["d"])
            for event in iter_events(full)
            if event["k"] in ("deliver_msg", "loss", "drop_dead")
        ]
        filtered_fates = [
            (event["t"], event["k"], event["d"])
            for event in iter_events(filtered)
            if event["k"] in ("deliver_msg", "loss", "drop_dead")
        ]
        assert full_fates == filtered_fates

    def test_dispatch_sampling_thins_only_dispatch(self, tmp_path):
        full, sampled = tmp_path / "full.jsonl", tmp_path / "sampled.jsonl"
        a = run_session(small_config(telemetry=TelemetryConfig(trace_path=str(full))))
        b = run_session(
            small_config(telemetry=TelemetryConfig(trace_path=str(sampled), sample_every=10))
        )
        full_kinds = a.telemetry.trace_events_by_kind
        sampled_kinds = b.telemetry.trace_events_by_kind
        assert sampled_kinds["dispatch"] < full_kinds["dispatch"]
        # Ceiling division: every 10th dispatch, starting with the first.
        assert sampled_kinds["dispatch"] == -(-full_kinds["dispatch"] // 10)
        for kind in full_kinds:
            if kind != "dispatch":
                assert sampled_kinds[kind] == full_kinds[kind]


class TestTelemetryConfig:
    def test_armed_property(self):
        assert TelemetryConfig(metrics=True).armed
        assert TelemetryConfig(metrics=False, trace_path="x.jsonl").armed
        assert not TelemetryConfig(metrics=False).armed

    def test_unknown_kind_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            TelemetryConfig(include_kinds=("no-such-kind",))
        with pytest.raises(ValueError):
            TelemetryConfig(exclude_kinds=("nope",))

    def test_json_round_trip(self):
        config = TelemetryConfig(
            metrics=False,
            trace_path="out.jsonl",
            sample_every=5,
            include_kinds=("send", "packet"),
            exclude_kinds=(),
            flush_every=10,
        )
        restored = TelemetryConfig.from_json_dict(
            json.loads(json.dumps(config.to_json_dict()))
        )
        assert restored == config

    def test_round_trips_through_scenario_bundles(self):
        from repro.scenarios import build_scenario
        from repro.validation.bundle import spec_from_dict, spec_to_dict

        spec = build_scenario(
            "homogeneous",
            telemetry=TelemetryConfig(trace_path="t.jsonl", sample_every=3),
        )
        restored = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert restored == spec
        assert restored.telemetry.sample_every == 3


class TestCallbackName:
    def test_function_qualname(self):
        def local_fn():
            pass

        assert callback_name(local_fn).endswith("local_fn")

    def test_partial_unwraps(self):
        def target():
            pass

        assert callback_name(partial(target, 1)).endswith("target")

    def test_never_contains_memory_address(self):
        class Callable:
            def __call__(self):
                pass

        name = callback_name(Callable())
        assert "0x" not in name
