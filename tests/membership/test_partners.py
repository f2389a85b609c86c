"""Unit tests for partner selection (the X and feed-me mechanisms)."""

import random

import pytest

from repro.membership.directory import MembershipDirectory
from repro.membership.partners import INFINITE, PartnerSelector

from tests.conftest import state_after_samples


def make_selector(fanout=3, refresh_every=1, node_id=0, num_nodes=10, rng=None):
    directory = MembershipDirectory()
    directory.add_all(range(num_nodes))
    selector = PartnerSelector(
        node_id=node_id,
        directory=directory,
        fanout=fanout,
        refresh_every=refresh_every,
        rng=random.Random(1) if rng is None else rng,
    )
    return selector, directory


class TestSampling:
    def test_returns_fanout_partners(self):
        selector, __ = make_selector(fanout=4)
        partners = selector.partners_for_round(now=0.0)
        assert len(partners) == 4

    def test_never_includes_self(self):
        selector, __ = make_selector(fanout=9, node_id=3)
        for _ in range(20):
            assert 3 not in selector.partners_for_round(now=0.0)

    def test_no_duplicates_in_one_round(self):
        selector, __ = make_selector(fanout=6)
        partners = selector.partners_for_round(now=0.0)
        assert len(partners) == len(set(partners))

    def test_fanout_capped_by_population(self):
        selector, __ = make_selector(fanout=50, num_nodes=5)
        partners = selector.partners_for_round(now=0.0)
        assert len(partners) == 4

    def test_empty_directory_gives_empty_partners(self):
        directory = MembershipDirectory()
        directory.add(0)
        selector = PartnerSelector(0, directory, fanout=3, refresh_every=1, rng=random.Random(1))
        assert selector.partners_for_round(now=0.0) == []

    def test_invalid_fanout_rejected(self):
        directory = MembershipDirectory()
        directory.add_all(range(3))
        with pytest.raises(ValueError):
            PartnerSelector(0, directory, fanout=0, refresh_every=1, rng=random.Random(1))

    def test_invalid_refresh_rejected(self):
        directory = MembershipDirectory()
        directory.add_all(range(3))
        with pytest.raises(ValueError):
            PartnerSelector(0, directory, fanout=2, refresh_every=0.5, rng=random.Random(1))


class TestRefreshRate:
    """Each refresh takes exactly the draws of one stdlib ``sample`` call:
    the stream's state after the rounds pins how many refreshes ran."""

    CANDIDATES = list(range(1, 30))  # node 0's view of a 30-node directory

    def test_x_equal_one_changes_every_round(self):
        rng = random.Random(1)
        selector, __ = make_selector(fanout=3, refresh_every=1, num_nodes=30, rng=rng)
        rounds = [tuple(selector.partners_for_round(now=0.0)) for _ in range(10)]
        assert len(set(rounds)) > 1
        assert rng.getstate() == state_after_samples(1, self.CANDIDATES, 3, 10)

    def test_x_infinite_never_changes(self):
        rng = random.Random(1)
        selector, __ = make_selector(fanout=3, refresh_every=INFINITE, num_nodes=30, rng=rng)
        first = selector.partners_for_round(now=0.0)
        for _ in range(20):
            assert selector.partners_for_round(now=0.0) == first
        assert rng.getstate() == state_after_samples(1, self.CANDIDATES, 3, 1)

    def test_x_equal_three_keeps_set_for_three_rounds(self):
        rng = random.Random(1)
        selector, __ = make_selector(fanout=3, refresh_every=3, num_nodes=30, rng=rng)
        rounds = [tuple(selector.partners_for_round(now=0.0)) for _ in range(9)]
        assert rounds[0] == rounds[1] == rounds[2]
        assert rounds[3] == rounds[4] == rounds[5]
        assert rounds[6] == rounds[7] == rounds[8]
        assert rng.getstate() == state_after_samples(1, self.CANDIDATES, 3, 3)

    def test_static_view_keeps_failed_partner(self):
        selector, directory = make_selector(fanout=3, refresh_every=INFINITE, num_nodes=10)
        first = selector.partners_for_round(now=0.0)
        victim = first[0]
        directory.mark_failed(victim, time=1.0)
        later = selector.partners_for_round(now=100.0)
        assert victim in later

    def test_dynamic_view_avoids_detected_failures(self):
        selector, directory = make_selector(fanout=3, refresh_every=1, num_nodes=6)
        directory.mark_failed(1, time=0.0)
        detected = directory.detection_delay + 1.0
        for _ in range(20):
            assert 1 not in selector.partners_for_round(now=detected)


class TestFeedMe:
    def test_insert_requester_replaces_one_partner(self):
        selector, __ = make_selector(fanout=3, refresh_every=INFINITE, num_nodes=10, node_id=0)
        before = set(selector.partners_for_round(now=0.0))
        new_partner = next(n for n in range(1, 10) if n not in before)
        changed = selector.insert_requester(new_partner, now=0.0)
        after = set(selector.partners_for_round(now=0.0))
        assert changed
        assert new_partner in after
        assert len(after) == 3
        assert len(before - after) == 1

    def test_insert_existing_partner_is_noop(self):
        selector, __ = make_selector(fanout=3, refresh_every=INFINITE, num_nodes=10)
        partners = selector.partners_for_round(now=0.0)
        assert not selector.insert_requester(partners[0], now=0.0)

    def test_insert_self_is_rejected(self):
        selector, __ = make_selector(fanout=3, node_id=0)
        assert not selector.insert_requester(0, now=0.0)

    def test_insert_before_first_round_initializes_view(self):
        selector, __ = make_selector(fanout=3, refresh_every=INFINITE, num_nodes=10, node_id=0)
        assert selector.insert_requester(5, now=0.0)
        partners = selector.partners_for_round(now=0.0)
        assert 5 in partners and len(partners) == 3

    def test_a_requester_seeds_an_empty_view(self):
        # Alone in the directory, the node has nobody to sample.
        selector, __ = make_selector(fanout=3, refresh_every=INFINITE, num_nodes=1, node_id=0)
        assert selector.partners_for_round(now=0.0) == []
        assert selector.insert_requester(5, now=0.0)
        assert selector.partners_for_round(now=0.0) == [5]

    def test_pick_feed_me_targets_excludes_self(self):
        selector, __ = make_selector(fanout=4, node_id=2, num_nodes=12)
        targets = selector.pick_feed_me_targets(now=0.0)
        assert len(targets) == 4
        assert 2 not in targets
