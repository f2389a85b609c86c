"""Repro bundles: spec serialization round-trips and bundle IO."""

import json
import math
from dataclasses import replace

import pytest

from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.membership.partners import INFINITE
from repro.scenarios import build_scenario
from repro.streaming.schedule import StreamConfig
from repro.validation import ReproBundle, ScenarioFuzzer, spec_from_dict, spec_to_dict


def _specs():
    stream = StreamConfig.scaled_down(num_windows=6)
    base = build_scenario("homogeneous")
    yield base
    yield build_scenario("heterogeneous-bandwidth")
    yield replace(base, 
        name="with-churn",
        stream=stream,
        churn=CatastrophicChurn(time=stream.duration * 0.5, fraction=0.3),
    )
    yield replace(base, 
        name="with-join",
        stream=stream,
        join=FlashCrowdJoin(time=stream.duration * 0.4, fraction=0.3),
    )
    yield replace(base, name="with-feed-me", feed_me_every=5)
    yield replace(base, name="uncapped", upload_cap_kbps=None)


class TestSpecSerialization:
    @pytest.mark.parametrize("spec", list(_specs()), ids=lambda spec: spec.name)
    def test_round_trip(self, spec):
        data = spec_to_dict(spec)
        json.dumps(data)  # must be plain JSON, inf and all
        rebuilt = spec_from_dict(data)
        assert spec_to_dict(rebuilt) == data

    def test_infinite_feed_me_is_json_safe(self):
        spec = build_scenario("homogeneous")
        assert spec.feed_me_every == INFINITE
        data = spec_to_dict(spec)
        assert data["feed_me_every"] == "inf"
        assert spec_from_dict(data).feed_me_every == INFINITE

    def test_static_mesh_bundle_is_strict_json(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        spec = replace(
            build_scenario("homogeneous"),
            name="static-mesh",
            refresh_every=INFINITE,
            failure_detection_delay=math.inf,
        )
        bundle = ReproBundle(
            campaign_seed=1, case_index=0, spec=spec, invariant="x", event_index=0, message=""
        )
        path = bundle.write(tmp_path / "bundle.json")
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        assert data["spec"]["refresh_every"] == "inf"
        assert data["spec"]["failure_detection_delay"] == "inf"
        assert ReproBundle.load(path).spec == spec

    def test_fuzzer_specs_all_round_trip(self):
        fuzzer = ScenarioFuzzer(5)
        for index in range(20):
            spec = fuzzer.derive_case(index).spec
            assert spec_to_dict(spec_from_dict(spec_to_dict(spec))) == spec_to_dict(spec)


class TestBundleIo:
    def _bundle(self):
        return ReproBundle(
            campaign_seed=7,
            case_index=3,
            spec=build_scenario("homogeneous"),
            invariant="bandwidth-cap",
            event_index=1549,
            message="[bandwidth-cap] at event 1549: boom",
            code_fingerprint="abc123",
        )

    def test_write_and_load(self, tmp_path):
        path = self._bundle().write(tmp_path / "nested" / "bundle.json")
        loaded = ReproBundle.load(path)
        assert loaded.case_id == "fuzz-7-3"
        assert loaded.invariant == "bandwidth-cap"
        assert loaded.event_index == 1549
        assert loaded.code_fingerprint == "abc123"
        assert spec_to_dict(loaded.spec) == spec_to_dict(self._bundle().spec)

    def test_bundle_is_human_readable_json(self, tmp_path):
        path = self._bundle().write(tmp_path / "bundle.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["format"] == "repro.validation.bundle/v2"
        assert data["spec"]["num_nodes"] == 40

    def test_foreign_json_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"cell_id": "not-a-bundle"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a repro bundle"):
            ReproBundle.load(path)

    def test_a_v1_bundle_is_rejected_by_its_format(self, tmp_path):
        data = self._bundle().to_json_dict()
        data["format"] = "repro.validation.bundle/v1"
        data["spec"].update(gossip_period=0.2, source_uncapped=True)  # the v1 spec fields
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="format 'repro.validation.bundle/v1'"):
            ReproBundle.load(path)

    def test_churn_and_join_bundle_round_trips(self, tmp_path):
        stream = StreamConfig.scaled_down(num_windows=6)
        spec = replace(
            build_scenario("homogeneous"),
            name="churn-and-join",
            stream=stream,
            churn=CatastrophicChurn(time=stream.duration * 0.5, fraction=0.3),
            join=FlashCrowdJoin(time=stream.duration * 0.4, fraction=0.2),
        )
        bundle = ReproBundle(
            campaign_seed=1, case_index=0, spec=spec, invariant="x", event_index=0, message=""
        )
        path = bundle.write(tmp_path / "bundle.json")
        data = json.loads(path.read_text(encoding="utf-8"))["spec"]
        assert data["churn"] == {"time": spec.churn.time, "fraction": 0.3}
        assert data["join"] == {"time": spec.join.time, "fraction": 0.2}
        loaded = ReproBundle.load(path).spec
        assert isinstance(loaded.churn, CatastrophicChurn)
        assert isinstance(loaded.join, FlashCrowdJoin)
        assert spec_to_dict(loaded) == spec_to_dict(spec)
