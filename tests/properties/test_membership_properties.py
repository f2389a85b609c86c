"""Property-based tests for partner selection."""

import random

from hypothesis import given, settings, strategies as st

from repro.membership.directory import MembershipDirectory
from repro.membership.partners import INFINITE, PartnerSelector

from tests.conftest import CountingRandom


@st.composite
def selector_setup(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=40))
    fanout = draw(st.integers(min_value=1, max_value=50))
    refresh = draw(st.sampled_from([1, 2, 3, 5, 10, INFINITE]))
    node_id = draw(st.integers(min_value=0, max_value=num_nodes - 1))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rounds = draw(st.integers(min_value=1, max_value=30))
    return num_nodes, fanout, refresh, node_id, seed, rounds


class TestPartnerSelectorProperties:
    @given(selector_setup())
    @settings(deadline=None)
    def test_partner_sets_are_always_valid(self, setup):
        num_nodes, fanout, refresh, node_id, seed, rounds = setup
        directory = MembershipDirectory()
        directory.add_all(range(num_nodes))
        selector = PartnerSelector(node_id, directory, fanout, refresh, random.Random(seed))
        for _ in range(rounds):
            partners = selector.partners_for_round(now=0.0)
            assert node_id not in partners
            assert len(partners) == len(set(partners))
            assert len(partners) == min(fanout, num_nodes - 1)
            assert set(partners) <= set(range(num_nodes))

    @given(selector_setup())
    @settings(deadline=None)
    def test_refresh_count_respects_refresh_rate(self, setup):
        num_nodes, fanout, refresh, node_id, seed, rounds = setup
        directory = MembershipDirectory()
        directory.add_all(range(num_nodes))
        rng = CountingRandom(seed)
        selector = PartnerSelector(node_id, directory, fanout, refresh, rng)
        for _ in range(rounds):
            selector.partners_for_round(now=0.0)
        if refresh == INFINITE:
            assert rng.samples == 1
        else:
            expected = -(-rounds // int(refresh))  # ceil division
            assert rng.samples == expected

    @given(selector_setup(), st.integers(min_value=0, max_value=39))
    @settings(deadline=None)
    def test_insert_requester_preserves_set_size(self, setup, requester):
        # Insertion ignores X; a static view lets the next round read the set.
        num_nodes, fanout, __, node_id, seed, __ = setup
        directory = MembershipDirectory()
        directory.add_all(range(num_nodes))
        selector = PartnerSelector(node_id, directory, fanout, INFINITE, random.Random(seed))
        size_before = len(selector.partners_for_round(now=0.0))
        selector.insert_requester(requester, now=0.0)
        partners = selector.partners_for_round(now=0.0)
        assert len(partners) in (size_before, size_before + (1 if size_before == 0 else 0))
        assert node_id not in partners
