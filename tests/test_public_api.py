"""The package's public import surface stays importable and consistent."""

import repro


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"

    def test_core_entry_points_exposed(self):
        assert callable(repro.run_session)
        assert callable(repro.StreamingSession)
        assert callable(repro.GossipConfig)
        assert callable(repro.SessionConfig)

    def test_substrate_types_exposed(self):
        assert callable(repro.BandwidthCap)
        assert callable(repro.StreamSchedule)
        assert callable(repro.CatastrophicChurn)
        assert callable(repro.StreamConfig)

    def test_infinite_sentinel_is_float_inf(self):
        import math

        assert repro.INFINITE == math.inf
        assert repro.OFFLINE_LAG == math.inf

    def test_experiments_package_importable(self):
        from repro import experiments

        assert hasattr(experiments, "figure1_fanout_700")
        assert hasattr(experiments, "REDUCED")

    def test_sweep_package_importable(self):
        from repro import sweep

        for name in sweep.__all__:
            assert hasattr(sweep, name), f"repro.sweep.__all__ lists {name} but it is missing"
        assert callable(sweep.run_sweep)
        assert callable(sweep.ParallelExecutor)

    def test_validation_package_importable(self):
        from repro import validation

        for name in validation.__all__:
            assert hasattr(
                validation, name
            ), f"repro.validation.__all__ lists {name} but it is missing"
        assert callable(validation.validate_session)
        assert callable(validation.ScenarioFuzzer)
        assert callable(validation.replay_bundle)

    def test_bench_package_importable(self):
        from repro import bench

        for name in bench.__all__:
            assert hasattr(bench, name), f"repro.bench.__all__ lists {name} but it is missing"
        assert callable(bench.run_selected)
        assert callable(bench.compare_report)
        assert len(bench.default_registry().select()) == 14

    def test_telemetry_package_importable(self):
        from repro import telemetry

        for name in telemetry.__all__:
            assert hasattr(
                telemetry, name
            ), f"repro.telemetry.__all__ lists {name} but it is missing"
        assert callable(telemetry.TelemetryConfig)
        assert callable(telemetry.MetricsRegistry)
        assert callable(telemetry.diff_traces)
        assert callable(telemetry.SessionTelemetry)

    def test_scenarios_package_has_one_funnel_and_no_builder(self):
        import importlib

        import pytest

        from repro import scenarios

        for name in scenarios.__all__:
            assert hasattr(scenarios, name), f"repro.scenarios.__all__ lists {name} but it is missing"
        assert callable(scenarios.ScenarioSpec.session_config)
        assert callable(scenarios.run_spec) and callable(scenarios.build_session)
        assert not hasattr(repro, "SessionBuilder")
        assert not hasattr(scenarios, "SessionBuilder")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.scenarios.builder")
