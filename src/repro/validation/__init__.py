"""Deterministic validation: runtime invariants + scenario fuzzing.

This package turns the repo's determinism investment (seed-keyed named RNG
streams, total event ordering) into an automatic correctness engine:

* :mod:`~repro.validation.observers` — zero-cost-when-idle hook layer over
  the simulator, the transport and the gossip nodes;
* :mod:`~repro.validation.invariants` — checkers for the physics the paper
  assumes (bandwidth-cap compliance, packet conservation + FEC accounting,
  event-time monotonicity, three-phase conformance, churn hygiene);
* :mod:`~repro.validation.fuzzer` — a seeded scenario fuzzer that explores
  paper-plausible configuration space with all invariants armed and
  freezes failures into replayable repro bundles;
* :mod:`~repro.validation.bundle` — the bundle format itself.

Command line::

    python -m repro.validation --fuzz 100 --seed 7 --jobs 4 \
        --bundle-dir results/fuzz
    python -m repro.validation --replay results/fuzz/fuzz-7-42.json
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.validation.bundle": ("ReproBundle", "spec_from_dict", "spec_to_dict"),
    "repro.validation.fuzzer": (
        "FuzzCase",
        "FuzzOutcome",
        "ReplayReport",
        "ScenarioFuzzer",
        "replay_bundle",
        "run_fuzz_case",
    ),
    "repro.validation.invariants": (
        "DEFAULT_INVARIANTS",
        "BandwidthCapCompliance",
        "ChurnHygiene",
        "EventTimeMonotonicity",
        "Invariant",
        "InvariantSuite",
        "InvariantViolation",
        "PacketConservation",
        "ProtocolConformance",
        "validate_session",
    ),
    "repro.validation.observers": (
        "DeliveryObserver",
        "ProtocolObserver",
        "SessionObserver",
        "SimulationObserver",
        "TransportObserver",
        "attach_session_observer",
    ),
})

__all__ = [
    "BandwidthCapCompliance",
    "ChurnHygiene",
    "DEFAULT_INVARIANTS",
    "DeliveryObserver",
    "EventTimeMonotonicity",
    "FuzzCase",
    "FuzzOutcome",
    "Invariant",
    "InvariantSuite",
    "InvariantViolation",
    "PacketConservation",
    "ProtocolConformance",
    "ProtocolObserver",
    "ReplayReport",
    "ReproBundle",
    "ScenarioFuzzer",
    "SessionObserver",
    "SimulationObserver",
    "TransportObserver",
    "attach_session_observer",
    "replay_bundle",
    "run_fuzz_case",
    "spec_from_dict",
    "spec_to_dict",
    "validate_session",
]
