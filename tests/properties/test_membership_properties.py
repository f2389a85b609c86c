"""Property-based tests for partner selection."""

import random

from hypothesis import example, given, settings, strategies as st

from repro.membership.directory import MembershipDirectory
from repro.membership.partners import INFINITE, PartnerSelector

from tests.conftest import state_after_samples


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
        rng = random.Random(seed)
        selector = PartnerSelector(node_id, directory, fanout, refresh, rng)
        for _ in range(rounds):
            selector.partners_for_round(now=0.0)
        if refresh == INFINITE:
            expected = 1
        else:
            expected = -(-rounds // int(refresh))  # ceil division
        candidates = [node for node in range(num_nodes) if node != node_id]
        assert rng.getstate() == state_after_samples(
            seed, candidates, min(fanout, len(candidates)), expected
        )

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


@st.composite
def sampler_setup(draw):
    num_nodes = draw(st.one_of(st.integers(min_value=1, max_value=300), st.just(10_000)))
    own = draw(st.sampled_from(["absent", "first", "middle", "last"]))
    node_id = {"absent": num_nodes, "first": 0, "middle": num_nodes // 2, "last": num_nodes - 1}[
        own
    ]
    # k = 0 (a directory holding only the node), 1, 6 (the first k past
    # stdlib's small setsize), 7 (the paper's fanout), 25, n and beyond the
    # candidate count.
    fanout = draw(
        st.one_of(
            st.sampled_from([1, 6, 7, 25]),
            st.just(num_nodes),
            st.integers(min_value=num_nodes + 1, max_value=num_nodes + 50),
        )
    )
    crashed = draw(
        st.lists(st.integers(min_value=0, max_value=num_nodes - 1), max_size=8, unique=True)
    )
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return num_nodes, node_id, fanout, crashed, seed


class TestSamplerMatchesStdlib:
    """The written-out sampler returns what ``random.Random.sample`` returns
    on the candidate list, and leaves the stream in the same state."""

    @given(sampler_setup())
    @settings(deadline=None)
    @example((1, 0, 1, [], 0))  # a sole member: k = 0, no draw at all
    @example((10_000, 5_000, 10_000, [], 1))  # pool branch over 9,999 candidates
    @example((10_000, 10_000, 7, [3], 2))  # rejection set, own id absent
    def test_draws_match_stdlib_sample(self, setup):
        num_nodes, node_id, fanout, crashed, seed = setup
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add_all(range(num_nodes))
        for index, victim in enumerate(crashed):
            directory.mark_failed(victim, time=float(index))
        ours = random.Random(seed)
        stdlib = random.Random(seed)
        selector = PartnerSelector(node_id, directory, fanout, 1, ours)
        # Before, across and after the crashed nodes' detection deadlines.
        for now in (0.0, 4.5, 5.0, 7.25, 20.0):
            candidates = directory.selectable(now, exclude=node_id)
            assert candidates == [
                node
                for node in range(num_nodes)
                if node != node_id and not (node in crashed and now >= crashed.index(node) + 5.0)
            ]
            expected = stdlib.sample(candidates, min(fanout, len(candidates)))
            assert selector.pick_feed_me_targets(now) == expected
            assert ours.getstate() == stdlib.getstate()

    # stdlib's branch boundaries: setsize is 21 for k <= 5, 85 for k = 6..7
    # and 277 for k = 25; a pool when n <= setsize, a rejection set above.
    BOUNDARY_SIZES = (1, 2, 5, 6, 21, 22, 23, 85, 86, 87, 277, 278, 279)

    def test_every_branch_boundary_matches_stdlib(self):
        for num_nodes in self.BOUNDARY_SIZES:
            for node_id in (num_nodes, 0, num_nodes // 2, num_nodes - 1):
                for fanout in (1, 2, 5, 6, 7, 25, num_nodes, num_nodes + 1):
                    for seed in range(8):
                        directory = MembershipDirectory()
                        directory.add_all(range(num_nodes))
                        ours = random.Random(seed)
                        stdlib = random.Random(seed)
                        selector = PartnerSelector(node_id, directory, fanout, 1, ours)
                        candidates = [node for node in range(num_nodes) if node != node_id]
                        count = min(fanout, len(candidates))
                        for _ in range(3):
                            assert selector.pick_feed_me_targets(0.0) == stdlib.sample(
                                candidates, count
                            )
                        assert ours.getstate() == stdlib.getstate()
