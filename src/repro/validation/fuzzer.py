"""FoundationDB-style scenario fuzzing on top of deterministic simulation.

The :class:`ScenarioFuzzer` derives random-but-valid
:class:`~repro.scenarios.spec.ScenarioSpec`s from a campaign seed — every
knob drawn from paper-plausible ranges (fanout, upload caps, loss, latency
models, churn, flash crowds, both protocols) — and runs each one with the
full :class:`~repro.validation.invariants.InvariantSuite` armed.  Because
case derivation is seeded and the simulation itself derives every draw from
the spec's seed through named RNG streams, a failing case is a pure function
of ``(campaign seed, index)``: the fuzzer freezes it into a
:class:`~repro.validation.bundle.ReproBundle` and :func:`replay_bundle`
re-runs it to the same invariant at the same event index.

Campaigns fan out across worker processes exactly like experiment sweeps
(:mod:`repro.sweep.executor`): each case is independent, workers return
compact picklable :class:`FuzzOutcome` records in completion order, and the
driver reassembles them in case order.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.membership.partners import INFINITE
from repro.scenarios.spec import ScenarioSpec, build_session
from repro.streaming.schedule import StreamConfig
from repro.sweep.store import code_fingerprint

from repro.validation.bundle import ReproBundle
from repro.validation.invariants import InvariantViolation, validate_session

PROTOCOL_CHOICES = ("three-phase", "three-phase", "three-phase", "eager-push")
"""Drawn uniformly: the paper's protocol dominates, the baseline still airs."""

CAP_CHOICES_KBPS = (500.0, 700.0, 1000.0, 2000.0, None)
"""The paper's PlanetLab cap levels plus the uncapped baseline."""

LOSS_CHOICES = (0.0, 0.01, 0.05)
LATENCY_MODELS = ("constant", "uniform", "lognormal", "per-node")


@dataclass(frozen=True)
class FuzzCase:
    """One derived case: its coordinates plus the spec they expand to."""

    campaign_seed: int
    index: int
    spec: ScenarioSpec


@dataclass(frozen=True)
class FuzzOutcome:
    """The (picklable) result of running one fuzz case."""

    campaign_seed: int
    index: int
    spec_summary: str
    ok: bool
    events_processed: int = 0
    invariant: str = ""
    event_index: int = -1
    message: str = ""

    @property
    def case_id(self) -> str:
        return f"fuzz-{self.campaign_seed}-{self.index}"


class ScenarioFuzzer:
    """Derives and runs seeded random scenarios with invariants armed.

    Parameters
    ----------
    campaign_seed:
        Root seed of the campaign; case ``i`` is a pure function of
        ``(campaign_seed, i)`` and nothing else.
    max_nodes:
        Upper bound on derived system sizes (runtime knob for CI budgets).
    """

    def __init__(self, campaign_seed: int, max_nodes: int = 40) -> None:
        if max_nodes < 15:
            raise ValueError(f"max_nodes must be >= 15, got {max_nodes!r}")
        self.campaign_seed = campaign_seed
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------
    # Case derivation
    # ------------------------------------------------------------------
    def derive_case(self, index: int) -> FuzzCase:
        """Expand case ``index`` into a concrete, validated scenario spec.

        String seeding of :class:`random.Random` is SHA-512 based and
        stable across processes and Python versions, so workers and drivers
        derive identical cases.
        """
        rng = random.Random(f"repro-fuzz:{self.campaign_seed}:{index}")
        stream = StreamConfig.scaled_down(num_windows=rng.randint(4, 8))
        churn = None
        join = None
        perturbation = rng.random()
        if perturbation < 0.35:
            churn = CatastrophicChurn(
                time=stream.duration * rng.uniform(0.3, 0.7),
                fraction=rng.uniform(0.1, 0.5),
            )
        elif perturbation < 0.60:
            join = FlashCrowdJoin(
                time=stream.duration * rng.uniform(0.3, 0.6),
                fraction=rng.uniform(0.2, 0.5),
            )
        spec = ScenarioSpec(
            name=f"fuzz-{self.campaign_seed}-{index}",
            description="randomized paper-plausible scenario (repro.validation fuzzer)",
            num_nodes=rng.randint(15, self.max_nodes),
            seed=rng.randrange(2**31),
            protocol=rng.choice(PROTOCOL_CHOICES),
            fanout=rng.randint(3, 10),
            refresh_every=rng.choice((1, 2, 4)),
            feed_me_every=rng.choice((INFINITE, 5, 10)),
            retransmit_timeout=rng.uniform(1.0, 3.0),
            max_request_attempts=rng.randint(1, 3),
            source_fanout=rng.randint(3, 10),
            stream=stream,
            upload_cap_kbps=rng.choice(CAP_CHOICES_KBPS),
            max_backlog_seconds=rng.choice((5.0, 10.0)),
            latency_model=rng.choice(LATENCY_MODELS),
            base_latency=rng.uniform(0.02, 0.1),
            random_loss=rng.choice(LOSS_CHOICES),
            churn=churn,
            join=join,
            extra_time=rng.uniform(10.0, 20.0),
        )
        return FuzzCase(campaign_seed=self.campaign_seed, index=index, spec=spec)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_case(self, index: int) -> FuzzOutcome:
        """Run one case with every applicable invariant armed."""
        case = self.derive_case(index)
        return run_fuzz_case(case)

    def run_campaign(
        self,
        count: int,
        jobs: int = 1,
        bundle_dir=None,
        progress: Optional[Callable[[FuzzOutcome], None]] = None,
    ) -> List[FuzzOutcome]:
        """Run ``count`` cases (optionally on ``jobs`` workers), in index order.

        Every failing case is frozen into a repro bundle under
        ``bundle_dir`` (if given) as ``<case_id>.json``.  ``progress`` is
        invoked per completed case, in completion order.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        outcomes: List[Optional[FuzzOutcome]] = [None] * count
        if jobs == 1 or count <= 1:
            for index in range(count):
                outcome = self.run_case(index)
                outcomes[index] = outcome
                if progress is not None:
                    progress(outcome)
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_worker, self.campaign_seed, self.max_nodes, index): index
                    for index in range(count)
                }
                for future in as_completed(futures):
                    outcome = future.result()
                    outcomes[outcome.index] = outcome
                    if progress is not None:
                        progress(outcome)
        completed = [outcome for outcome in outcomes if outcome is not None]
        if bundle_dir is not None:
            for outcome in completed:
                if not outcome.ok:
                    self.write_bundle(outcome, bundle_dir)
        return completed

    def write_bundle(self, outcome: FuzzOutcome, bundle_dir) -> Path:
        """Freeze a failing outcome into ``<bundle_dir>/<case_id>.json``."""
        if outcome.ok:
            raise ValueError(f"case {outcome.case_id} passed; nothing to bundle")
        case = self.derive_case(outcome.index)
        bundle = ReproBundle(
            campaign_seed=self.campaign_seed,
            case_index=outcome.index,
            spec=case.spec,
            invariant=outcome.invariant,
            event_index=outcome.event_index,
            message=outcome.message,
            code_fingerprint=code_fingerprint(),
        )
        return bundle.write(Path(bundle_dir) / f"{outcome.case_id}.json")


def run_fuzz_case(case: FuzzCase) -> FuzzOutcome:
    """Run one derived case; invariant violations become failed outcomes."""
    summary = case.spec.describe()
    try:
        result = validate_session(build_session(case.spec))
    except InvariantViolation as violation:
        return FuzzOutcome(
            campaign_seed=case.campaign_seed,
            index=case.index,
            spec_summary=summary,
            ok=False,
            invariant=violation.invariant,
            event_index=violation.event_index,
            message=str(violation),
        )
    return FuzzOutcome(
        campaign_seed=case.campaign_seed,
        index=case.index,
        spec_summary=summary,
        ok=True,
        events_processed=result.events_processed,
    )


def _worker(campaign_seed: int, max_nodes: int, index: int) -> FuzzOutcome:
    return ScenarioFuzzer(campaign_seed, max_nodes=max_nodes).run_case(index)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayReport:
    """What re-running a repro bundle produced."""

    bundle: ReproBundle
    reproduced: bool
    matched: bool
    fingerprint_matched: bool
    invariant: str = ""
    event_index: int = -1
    message: str = ""

    def describe(self) -> str:
        if not self.reproduced:
            return (
                f"{self.bundle.case_id}: NOT reproduced — the session completed "
                "with every invariant holding"
            )
        status = "exact match" if self.matched else (
            f"DIFFERENT failure (got {self.invariant!r} at event {self.event_index}, "
            f"expected {self.bundle.invariant!r} at event {self.bundle.event_index})"
        )
        note = "" if self.fingerprint_matched else " [code fingerprint differs from bundle]"
        return f"{self.bundle.case_id}: reproduced — {status}{note}"


def replay_bundle(bundle_or_path) -> ReplayReport:
    """Re-run a repro bundle's frozen spec with invariants armed.

    The replay is deterministic: with the code unchanged, the same
    invariant fails at the same event index.  Under different code the
    report still replays but flags the fingerprint mismatch.
    """
    bundle = (
        bundle_or_path
        if isinstance(bundle_or_path, ReproBundle)
        else ReproBundle.load(bundle_or_path)
    )
    fingerprint_matched = bundle.code_fingerprint == code_fingerprint()
    try:
        validate_session(build_session(bundle.spec))
    except InvariantViolation as violation:
        return ReplayReport(
            bundle=bundle,
            reproduced=True,
            matched=(
                violation.invariant == bundle.invariant
                and violation.event_index == bundle.event_index
            ),
            fingerprint_matched=fingerprint_matched,
            invariant=violation.invariant,
            event_index=violation.event_index,
            message=str(violation),
        )
    return ReplayReport(
        bundle=bundle,
        reproduced=False,
        matched=False,
        fingerprint_matched=fingerprint_matched,
    )
