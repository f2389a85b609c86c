"""Replayable repro bundles: a fuzzer failure as one self-contained JSON file.

A bundle freezes everything needed to re-run a failing fuzz case
deterministically: the campaign seed and case index it came from, the fully
serialized :class:`~repro.scenarios.spec.ScenarioSpec` (so the failure
replays even if the fuzzer's derivation ranges change later), the failing
invariant's name, the event index at which it fired, and the code
fingerprint of the tree that produced it (replays under different code are
reported, not trusted).

Spec serialization here is deliberately explicit rather than generic
pickling: bundles are meant to be read by humans, attached to bug reports,
and uploaded as CI artifacts, so every field is plain JSON.  Churn and join
are each one class, so each is written as its ``time`` and ``fraction``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Optional

from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.scenarios.spec import BandwidthClass, ScenarioSpec
from repro.streaming.schedule import StreamConfig
from repro.telemetry.config import TelemetryConfig

BUNDLE_FORMAT = "repro.validation.bundle/v2"

#: Spec fields holding a float, any of which may be infinite: the static
#: mesh's ``refresh_every``, a disabled ``feed_me_every``, a failure
#: detector that never fires.
_FLOAT_FIELDS = tuple(f.name for f in fields(ScenarioSpec) if "float" in str(f.type))


# ----------------------------------------------------------------------
# Spec <-> JSON
# ----------------------------------------------------------------------
def _json_float(value: Any) -> Any:
    """``value``, with an infinite float spelled ``"inf"`` / ``"-inf"``: JSON has no ∞."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _schedule_to_dict(schedule: Any) -> Optional[Dict[str, Any]]:
    if schedule is None:
        return None
    return {"time": schedule.time, "fraction": schedule.fraction}


def _schedule_from_dict(cls: type, data: Optional[Dict[str, Any]]) -> Any:
    if data is None:
        return None
    return cls(time=data["time"], fraction=data["fraction"])


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """A plain-JSON dictionary capturing every field of the spec."""
    data = asdict(spec)
    data["stream"] = asdict(spec.stream)
    data["bandwidth_classes"] = [asdict(cls) for cls in spec.bandwidth_classes]
    data["churn"] = _schedule_to_dict(spec.churn)
    data["join"] = _schedule_to_dict(spec.join)
    data["telemetry"] = None if spec.telemetry is None else spec.telemetry.to_json_dict()
    for name in _FLOAT_FIELDS:
        data[name] = _json_float(data[name])
    return data


def spec_from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from :func:`spec_to_dict` output."""
    values = dict(data)
    values["stream"] = StreamConfig(**values["stream"])
    values["bandwidth_classes"] = tuple(
        BandwidthClass(**cls) for cls in values.get("bandwidth_classes", ())
    )
    values["churn"] = _schedule_from_dict(CatastrophicChurn, values.get("churn"))
    values["join"] = _schedule_from_dict(FlashCrowdJoin, values.get("join"))
    telemetry = values.get("telemetry")
    values["telemetry"] = (
        None if telemetry is None else TelemetryConfig.from_json_dict(telemetry)
    )
    for name in _FLOAT_FIELDS:
        if values.get(name) in ("inf", "-inf"):
            values[name] = float(values[name])
    return ScenarioSpec(**values)


# ----------------------------------------------------------------------
# The bundle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReproBundle:
    """One failing fuzz case, frozen for deterministic replay."""

    campaign_seed: int
    case_index: int
    spec: ScenarioSpec
    invariant: str
    event_index: int
    message: str
    code_fingerprint: str = ""
    format: str = field(default=BUNDLE_FORMAT)

    @property
    def case_id(self) -> str:
        """Stable identifier of the originating fuzz case."""
        return f"fuzz-{self.campaign_seed}-{self.case_index}"

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": self.format,
            "campaign_seed": self.campaign_seed,
            "case_index": self.case_index,
            "spec": spec_to_dict(self.spec),
            "invariant": self.invariant,
            "event_index": self.event_index,
            "message": self.message,
            "code_fingerprint": self.code_fingerprint,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ReproBundle":
        fmt = data.get("format", "")
        if fmt != BUNDLE_FORMAT:
            raise ValueError(
                f"not a repro bundle (format {fmt!r}, expected {BUNDLE_FORMAT!r})"
            )
        return cls(
            campaign_seed=int(data["campaign_seed"]),
            case_index=int(data["case_index"]),
            spec=spec_from_dict(data["spec"]),
            invariant=str(data["invariant"]),
            event_index=int(data["event_index"]),
            message=str(data["message"]),
            code_fingerprint=str(data.get("code_fingerprint", "")),
        )

    def write(self, path) -> Path:
        """Serialize to ``path`` (parents created), returning the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path) -> "ReproBundle":
        """Read a bundle previously written with :meth:`write`."""
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
