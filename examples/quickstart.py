#!/usr/bin/env python3
"""Quickstart: stream to a small swarm and print the paper's two metrics.

Runs the ``homogeneous`` scenario from the scenario registry — one source,
39 receivers, 700 kbps upload caps, fanout 7, partner refresh every round —
and reports stream quality (percentage of nodes viewing with < 1 % jitter)
at several playout lags, stream lag statistics, and the per-node upload
usage summary.

Every experiment shape in this repository is a named
:class:`~repro.scenarios.ScenarioSpec`; ``run_scenario(name, **overrides)``
compiles it with :meth:`~repro.scenarios.ScenarioSpec.session_config` and
hands the config to :func:`~repro.run_session`.  List the available shapes
with ``available_scenarios()``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import os
import time

from repro import OFFLINE_LAG, StreamConfig, available_scenarios
from repro.metrics.report import format_table
from repro.scenarios import build_scenario, run_spec

# Smoke hook for the example test suite: REPRO_EXAMPLE_SMOKE=1 shrinks the
# scale so every example finishes in a couple of seconds.
SMOKE = bool(os.environ.get("REPRO_EXAMPLE_SMOKE"))


def main() -> None:
    spec = build_scenario(
        "homogeneous",
        num_nodes=16 if SMOKE else 40,
        seed=2024,
        stream=StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=20,
            fec_packets_per_window=2,
            num_windows=8 if SMOKE else 60,
        ),
    )

    print(f"Available scenarios: {', '.join(available_scenarios())}")
    print(f"Running {spec.describe()}")
    print(f"({spec.num_nodes} nodes, {spec.stream.duration:.0f}s of 600 kbps stream)...")
    started = time.time()
    result = run_spec(spec)
    elapsed = time.time() - started
    print(f"Done in {elapsed:.1f}s of wall-clock time "
          f"({result.events_processed:,} simulated events).\n")

    # ------------------------------------------------------------------
    # Stream quality at several playout lags (the paper's main metric)
    # ------------------------------------------------------------------
    rows = []
    for label, lag in [("5 s", 5.0), ("10 s", 10.0), ("20 s", 20.0), ("offline", OFFLINE_LAG)]:
        rows.append(
            [
                label,
                result.viewing_percentage(lag=lag),
                result.average_complete_windows_percentage(lag),
            ]
        )
    print("Stream quality by playout lag:")
    print(format_table(["playout lag", "% nodes with <1% jitter", "avg % complete windows"], rows))
    print()

    # ------------------------------------------------------------------
    # Stream lag distribution
    # ------------------------------------------------------------------
    quality = result.quality()
    critical_lags = sorted(quality.critical_lags())
    finite = [lag for lag in critical_lags if lag != float("inf")]
    if finite:
        print("Stream lag (time to view 99% of windows):")
        print(f"  best node : {finite[0]:6.2f} s")
        print(f"  median    : {finite[len(finite) // 2]:6.2f} s")
        print(f"  worst node: {finite[-1]:6.2f} s")
    print(f"  nodes never reaching 99% quality: {len(critical_lags) - len(finite)}")
    print()

    # ------------------------------------------------------------------
    # Upload bandwidth usage
    # ------------------------------------------------------------------
    usage = result.bandwidth_usage()
    print("Upload bandwidth usage across receivers (averaged over the whole run):")
    print(f"  mean: {usage.mean_kbps():6.0f} kbps   max: {usage.max_kbps():6.0f} kbps   "
          f"heterogeneity (CV): {usage.heterogeneity():.2f}")
    print(f"  share carried by the top 10% of nodes: {usage.top_contributor_share(0.1):.0%}")
    print(f"  packets delivered overall: {result.delivery_ratio():.1%}")


if __name__ == "__main__":
    main()
