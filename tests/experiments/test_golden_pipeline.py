"""Golden pinning of the metrics/figure pipeline against the pre-fast-path code.

The metrics fast path (incremental delivery-lag accumulation, one-pass
quality analysis) must be *bit-for-bit* invisible in the results: the golden
files under ``tests/golden/`` were generated with the pipeline that preceded
it and every later revision has to reproduce them byte-identically.

Three artifacts are pinned:

* ``reduced_point.json`` — the full :class:`~repro.sweep.PointSummary` of the
  default experiment point (fanout 7, 700 kbps) at the **reduced** scale,
  including the Figure 2 lag CDF over the whole grid and the sorted per-node
  usage;
* ``smoke_churn_point.json`` — a smoke-scale point with 50 % catastrophic
  churn, covering the survivors-only analysis path;
* ``figure1_smoke_f4f7.txt`` — a Figure 1 table (fanouts 4 and 7, smoke
  scale) rendered through the sweep cache and figure generator, pinning the
  text-table pipeline end to end.

Regenerate (only legitimate after an *intentional* semantic change)::

    PYTHONPATH=src python tests/experiments/test_golden_pipeline.py --write
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.session import run_session
from repro.experiments.figures import figure1_fanout_700
from repro.experiments.scale import REDUCED, SMOKE
from repro.sweep.cache import SummaryCache
from repro.sweep.summary import MetricsRequest, summarize

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def compute_reduced_point() -> str:
    """The default reduced-scale point, serialized exactly like the store."""
    summary = summarize(
        run_session(REDUCED.session_config()),
        MetricsRequest.for_scale(REDUCED),
        cell_id="golden-reduced-default",
        seed=REDUCED.seed,
    )
    return json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n"


def compute_smoke_churn_point() -> str:
    """A smoke-scale point with 50% churn (survivor-path coverage)."""
    summary = summarize(
        run_session(SMOKE.session_config(churn_fraction=0.5)),
        MetricsRequest.for_scale(SMOKE),
        cell_id="golden-smoke-churn50",
        seed=SMOKE.seed,
    )
    return json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n"


def compute_figure1_smoke_table() -> str:
    """A two-fanout Figure 1 table through the cache + generator pipeline."""
    result = figure1_fanout_700(SMOKE, cache=SummaryCache(), fanouts=(4, 7))
    return result.to_table() + "\n"


GOLDENS = {
    "reduced_point.json": compute_reduced_point,
    "smoke_churn_point.json": compute_smoke_churn_point,
    "figure1_smoke_f4f7.txt": compute_figure1_smoke_table,
}


def test_reduced_point_summary_matches_golden():
    expected = (GOLDEN_DIR / "reduced_point.json").read_text(encoding="utf-8")
    assert compute_reduced_point() == expected


def test_smoke_churn_point_summary_matches_golden():
    expected = (GOLDEN_DIR / "smoke_churn_point.json").read_text(encoding="utf-8")
    assert compute_smoke_churn_point() == expected


def test_figure1_table_matches_golden():
    expected = (GOLDEN_DIR / "figure1_smoke_f4f7.txt").read_text(encoding="utf-8")
    assert compute_figure1_smoke_table() == expected


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true", help="regenerate the golden files in place"
    )
    args = parser.parse_args()
    if not args.write:
        parser.error("nothing to do; pass --write to regenerate the golden files")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, compute in GOLDENS.items():
        path = GOLDEN_DIR / name
        path.write_text(compute(), encoding="utf-8")
        print(f"wrote {path}")
