"""Persistent, resumable storage of sweep results.

The :class:`ResultStore` is an append-only JSONL file: one record per
completed (cell, seed) pair, written and flushed the moment the point
finishes.  Because records are self-contained lines, a crashed or killed
sweep leaves at worst one torn trailing line — which :meth:`ResultStore.load`
skips — and rerunning the sweep with ``resume`` executes only the missing
cells.

Records are additionally keyed by a **code fingerprint**: a hash over the
``repro`` package sources.  Results computed by an older version of the
simulation are never silently reused — determinism guarantees only hold
between identical code.

This store subsumes the old in-memory ``experiments.runner.shared_cache`` as
the cross-figure cache: overlapping points of different figures (the
fanout-7 / 700 kbps / X=1 cell appears in Figures 1, 2, 4, 5 and 6) are
shared through it, and survive process exit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.sweep.summary import PointSummary

RecordKey = Tuple[str, int, str]
"""(cell id, seed, code fingerprint)."""

_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (stable across processes).

    Cached per process; the first call reads the whole package (~100 kB).
    """
    cached = _FINGERPRINT_CACHE.get("repro")
    if cached is not None:
        return cached
    import repro

    package_root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()[:16]
    _FINGERPRINT_CACHE["repro"] = fingerprint
    return fingerprint


def scale_fingerprint(scale) -> str:
    """Hash of a scale's *contents* (not just its name).

    Cell ids only carry the scale's name, and the code fingerprint cannot
    see runtime-constructed :class:`ExperimentScale` objects — so without
    this, a store written with one ``reduced`` could satisfy a resume with a
    differently-sized scale that happens to share the name.  Scales are
    frozen dataclasses of numbers and tuples, so ``repr`` is deterministic.
    """
    digest = hashlib.sha256(repr(scale).encode("utf-8"))
    return digest.hexdigest()[:8]


def run_fingerprint(scale) -> str:
    """The store key fingerprint: code hash + scale-contents hash."""
    return f"{code_fingerprint()}+{scale_fingerprint(scale)}"


class ResultStore:
    """Append-only JSONL store of :class:`PointSummary` records.

    Parameters
    ----------
    path:
        The JSONL file; created (with parents) on first append.  Loading a
        missing file yields an empty store, so ``--store`` works on the
        first run and every run thereafter.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._records: Dict[RecordKey, PointSummary] = {}
        self._loaded = False
        self._tail_is_clean = False

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self) -> None:
        """Read all intact records from disk (torn/corrupt lines are skipped)."""
        self._records.clear()
        self._loaded = True
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = (
                        str(record["cell_id"]),
                        int(record["seed"]),
                        str(record["fingerprint"]),
                    )
                    summary = PointSummary.from_json_dict(record["summary"])
                except (ValueError, KeyError, TypeError):
                    # A torn line from a killed writer, or foreign content;
                    # resuming reruns that point instead of trusting it.
                    continue
                self._records[key] = summary

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.load()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, cell_id: str, seed: int, fingerprint: str) -> Optional[PointSummary]:
        """The stored summary for the key, or ``None``."""
        self._ensure_loaded()
        return self._records.get((cell_id, seed, fingerprint))

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        cell_id: str,
        seed: int,
        fingerprint: str,
        summary: PointSummary,
    ) -> None:
        """Durably append one completed point (write + flush per record).

        Appending never parses the existing file: a write-mostly run (no
        ``resume``) stays O(1) per point however large the store has grown.
        """
        record = {
            "cell_id": cell_id,
            "seed": seed,
            "fingerprint": fingerprint,
            "summary": summary.to_json_dict(),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        prefix = "\n" if self._tail_needs_newline() else ""
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(prefix + json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
        self._tail_is_clean = True
        if self._loaded:
            self._records[(cell_id, seed, fingerprint)] = summary

    def _tail_needs_newline(self) -> bool:
        """Whether the file ends in a torn (newline-less) line.

        A writer killed mid-``append`` leaves a truncated trailing line;
        gluing the next record onto it would corrupt *both* records, so the
        torn line is terminated first (``load`` then skips it as one corrupt
        line instead of two).  Checked once per store instance — after our
        own first append the tail is known clean, keeping appends O(1).
        """
        if self._tail_is_clean:
            return False
        try:
            with self.path.open("rb") as handle:
                handle.seek(0, 2)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, 2)
                return handle.read(1) != b"\n"
        except FileNotFoundError:
            return False
