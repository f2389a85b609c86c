"""The versioned JSON report every benchmark run produces.

One schema for everything: the combined ``python -m repro.bench run --json``
artifact and the per-benchmark baseline files under ``benchmarks/baselines/``
have the same shape, so any report can be compared against any baseline.

Schema (``"repro.bench/1"``)::

    {
      "schema": "repro.bench/1",
      "scale": "smoke",
      "fingerprint": "<repro.sweep code fingerprint>",
      "host": {"cpu_count": 1, "platform": "...", "python": "3.11.7"},
      "results": [
        {"benchmark": "engine-throughput",
         "wall_seconds": 3.21,
         "metrics": {"events_processed": 23176.0, ...}},
        ...
      ]
    }

``fingerprint`` reuses :func:`repro.sweep.code_fingerprint` — the same hash
that keys the sweep result store — so a report always says which code
produced it.  Comparison never *requires* fingerprint equality (a baseline
necessarily predates the code it gates), but the verdict records staleness.
``host`` carries hints for interpreting the ``ratio`` metrics; nothing in
the comparison logic reads it.  Reports written before benchmarks ran once
per invocation also carry a per-record ``"repeats"`` count; the loader
ignores it.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA = "repro.bench/1"


class ReportError(ValueError):
    """A report file does not conform to the schema."""


def host_hints() -> Dict[str, object]:
    """Context for interpreting the timed (``ratio``) numbers of a report."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


@dataclass
class BenchmarkRecord:
    """One benchmark's combined measurement within a report."""

    benchmark: str
    metrics: Dict[str, float]
    wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "wall_seconds": round(self.wall_seconds, 3),
            "metrics": {name: value for name, value in sorted(self.metrics.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchmarkRecord":
        try:
            return cls(
                benchmark=str(data["benchmark"]),
                wall_seconds=float(data["wall_seconds"]),
                metrics={str(k): float(v) for k, v in data["metrics"].items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReportError(f"malformed benchmark record: {exc}") from exc


@dataclass
class BenchReport:
    """A full report: run context plus one record per executed benchmark."""

    scale: str
    fingerprint: str
    results: List[BenchmarkRecord] = field(default_factory=list)
    host: Dict[str, object] = field(default_factory=host_hints)

    def record_for(self, benchmark: str) -> Optional[BenchmarkRecord]:
        """The record of one benchmark, or ``None`` when absent."""
        for record in self.results:
            if record.benchmark == benchmark:
                return record
        return None

    def single(self) -> BenchmarkRecord:
        """The sole record of a per-benchmark (baseline) report."""
        if len(self.results) != 1:
            raise ReportError(
                f"expected a single-benchmark report, found {len(self.results)} records"
            )
        return self.results[0]

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "scale": self.scale,
            "fingerprint": self.fingerprint,
            "host": self.host,
            "results": [record.to_json_dict() for record in self.results],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchReport":
        if not isinstance(data, dict):
            raise ReportError(f"report must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ReportError(f"unsupported report schema {schema!r}; this code reads {SCHEMA!r}")
        try:
            scale = str(data["scale"])
            fingerprint = str(data["fingerprint"])
            host = dict(data.get("host", {}))
            raw_results = data["results"]
        except (KeyError, TypeError) as exc:
            raise ReportError(f"malformed report: {exc}") from exc
        if not isinstance(raw_results, list):
            raise ReportError("report 'results' must be a list")
        results = [BenchmarkRecord.from_json_dict(item) for item in raw_results]
        return cls(scale=scale, fingerprint=fingerprint, results=results, host=host)

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def write(self, path) -> Path:
        """Write the report as pretty JSON (parents created)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path) -> "BenchReport":
        """Read and validate a report file."""
        source = Path(path)
        try:
            data = json.loads(source.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ReportError(f"no report at {source}") from None
        except json.JSONDecodeError as exc:
            raise ReportError(f"{source} is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def current_fingerprint() -> str:
    """The running code's fingerprint (reused from :mod:`repro.sweep`)."""
    from repro.sweep.store import code_fingerprint

    return code_fingerprint()
