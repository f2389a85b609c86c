"""Unit tests for the in-flight loss models."""

import pytest

from repro.network.loss import NoLoss, UniformLoss
from repro.network.message import Message
from repro.simulation.rng import RngRegistry


def make_message(receiver: int = 1) -> Message:
    return Message(sender=0, receiver=receiver, kind="serve", size_bytes=100)


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(5)


class TestNoLoss:
    def test_never_loses(self):
        model = NoLoss()
        assert not any(model.is_lost(make_message()) for _ in range(100))


class TestUniformLoss:
    def test_zero_probability_never_loses(self, rng):
        model = UniformLoss(rng, probability=0.0)
        assert not any(model.is_lost(make_message()) for _ in range(100))

    def test_one_probability_always_loses(self, rng):
        model = UniformLoss(rng, probability=1.0)
        assert all(model.is_lost(make_message()) for _ in range(100))

    def test_loss_rate_close_to_probability(self, rng):
        model = UniformLoss(rng, probability=0.2)
        losses = sum(model.is_lost(make_message()) for _ in range(5000))
        assert 0.15 < losses / 5000 < 0.25

    def test_invalid_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            UniformLoss(rng, probability=1.5)


class TestPerSenderLossStreams:
    """per_sender=True keys loss draws by the sending node — a sender's
    outcomes depend only on its own send history (placement invariance for
    the sharded runner), mirroring the latency models' mode."""

    def _interleaved(self, model, sender, count):
        outcomes = []
        for _ in range(count):
            model.is_lost(Message(sender=7, receiver=1, kind="serve", size_bytes=100))
            outcomes.append(
                model.is_lost(
                    Message(sender=sender, receiver=2, kind="serve", size_bytes=100)
                )
            )
        return outcomes

    def test_uniform_loss_draws_survive_interleaving(self):
        solo = UniformLoss(RngRegistry(9), probability=0.5, per_sender=True)
        message = Message(sender=1, receiver=2, kind="serve", size_bytes=100)
        expected = [solo.is_lost(message) for _ in range(32)]
        mixed = UniformLoss(RngRegistry(9), probability=0.5, per_sender=True)
        assert self._interleaved(mixed, sender=1, count=32) == expected

    def test_certain_outcomes_need_no_stream(self):
        # p == 0 short-circuits before touching any RNG, in both modes.
        model = UniformLoss(RngRegistry(9), probability=0.0, per_sender=True)
        assert not any(model.is_lost(make_message()) for _ in range(50))
