"""Unit tests for the membership directory."""

import math

import pytest

from repro.membership.directory import MembershipDirectory


class TestMembership:
    def test_add_registers_in_order(self):
        directory = MembershipDirectory()
        directory.add(1)
        directory.add(2)
        assert len(directory) == 2
        assert directory.alive_members() == [1, 2]
        assert directory.selectable(now=0.0) == [1, 2]
        with pytest.raises(KeyError):
            directory.mark_failed(3, time=0.0)

    def test_add_all(self):
        directory = MembershipDirectory()
        directory.add_all(range(5))
        assert len(directory) == 5

    def test_duplicate_add_rejected(self):
        directory = MembershipDirectory()
        directory.add(1)
        with pytest.raises(ValueError):
            directory.add(1)

    def test_negative_detection_delay_rejected(self):
        with pytest.raises(ValueError):
            MembershipDirectory(detection_delay=-1.0)


class TestFailures:
    def test_mark_failed_records_time(self):
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add_all(range(3))
        directory.mark_failed(1, time=10.0)
        assert directory.alive_members() == [0, 2]
        # Detection runs off the recorded crash time: visible until 10 + 5.
        assert directory.selectable(now=14.999) == [0, 1, 2]
        assert directory.selectable(now=15.0) == [0, 2]

    def test_mark_failed_unknown_node_rejected(self):
        directory = MembershipDirectory()
        with pytest.raises(KeyError):
            directory.mark_failed(7, time=1.0)

    def test_first_failure_time_is_kept(self):
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add(1)
        directory.mark_failed(1, time=5.0)
        directory.mark_failed(1, time=9.0)
        assert directory.selectable(now=9.999) == [1]
        assert directory.selectable(now=10.0) == []

    def test_alive_members_excludes_failed(self):
        directory = MembershipDirectory()
        directory.add_all(range(4))
        directory.mark_failed(2, time=1.0)
        assert directory.alive_members() == [0, 1, 3]


class TestSelectable:
    def test_excludes_self(self):
        directory = MembershipDirectory()
        directory.add_all(range(4))
        assert 2 not in directory.selectable(now=0.0, exclude=2)

    def test_failed_node_still_selectable_before_detection(self):
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add_all(range(4))
        directory.mark_failed(1, time=10.0)
        assert 1 in directory.selectable(now=12.0)

    def test_failed_node_removed_after_detection_delay(self):
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add_all(range(4))
        directory.mark_failed(1, time=10.0)
        assert 1 not in directory.selectable(now=15.0)
        assert 1 not in directory.selectable(now=100.0)

    def test_zero_detection_delay_removes_immediately(self):
        directory = MembershipDirectory(detection_delay=0.0)
        directory.add_all(range(3))
        directory.mark_failed(2, time=4.0)
        assert 2 not in directory.selectable(now=4.0)

    def test_infinite_detection_delay_never_removes(self):
        directory = MembershipDirectory(detection_delay=math.inf)
        directory.add_all(range(3))
        directory.mark_failed(2, time=4.0)
        assert 2 in directory.selectable(now=1e9)


class TestChurnCandidates:
    def test_protected_nodes_excluded(self):
        directory = MembershipDirectory()
        directory.add_all(range(5))
        candidates = directory.churn_candidates(protected=[0])
        assert 0 not in candidates
        assert set(candidates) == {1, 2, 3, 4}

    def test_already_failed_nodes_excluded(self):
        directory = MembershipDirectory()
        directory.add_all(range(5))
        directory.mark_failed(3, time=1.0)
        assert 3 not in directory.churn_candidates()


class TestSelectableCache:
    """The selectable() cache must be invisible: every call returns exactly
    what a fresh scan would, through every invalidation edge (membership
    mutation, detection deadlines crossing, time moving backwards)."""

    @staticmethod
    def _fresh_scan(members, crashes, delay, now, exclude=None):
        """The pre-cache scan over the members and crash times a test applied."""
        return [
            node_id
            for node_id in members
            if node_id != exclude
            and not (node_id in crashes and now >= crashes[node_id] + delay)
        ]

    def _assert_matches_scan(self, directory, members, crashes, now, excludes):
        for exclude in excludes:
            assert directory.selectable(now, exclude) == self._fresh_scan(
                members, crashes, directory.detection_delay, now, exclude
            ), (now, exclude)

    def test_cache_tracks_every_mutation_and_deadline(self):
        directory = MembershipDirectory(detection_delay=5.0)
        members, crashes = list(range(8)), {}
        directory.add_all(members)
        excludes = [None, 0, 3, 7, 99]  # 99: excluding a non-member is a no-op
        self._assert_matches_scan(directory, members, crashes, 0.0, excludes)
        self._assert_matches_scan(directory, members, crashes, 0.0, excludes)  # cached hit

        for node_id, time in ((2, 1.0), (5, 2.0)):
            directory.mark_failed(node_id, time=time)
            crashes[node_id] = time
        for now in (1.0, 3.0, 5.999, 6.0, 6.5, 7.0, 10.0):  # crosses both deadlines
            self._assert_matches_scan(directory, members, crashes, now, excludes)

        directory.add(8)
        members.append(8)
        self._assert_matches_scan(directory, members, crashes, 10.0, excludes + [8])

    def test_time_moving_backwards_invalidates(self):
        # Two nodes asking at slightly different times within one round go
        # through selectable() with non-monotonic `now` values.
        directory = MembershipDirectory(detection_delay=4.0)
        directory.add_all(range(5))
        directory.mark_failed(1, time=0.0)
        assert directory.selectable(5.0) == [0, 2, 3, 4]  # 1 detected
        assert directory.selectable(3.0) == [0, 1, 2, 3, 4]  # 1 visible again

    def test_a_past_now_is_answered_from_the_cache_between_two_deadlines(self):
        # A parked node replays its skipped rounds at past instants: between
        # the latest detection at or before the rebuild and the next one, the
        # cached base list answers them without a rebuild.
        directory = MembershipDirectory(detection_delay=1.0)
        members, crashes = list(range(10)), {3: 2.0, 5: 4.0}  # detected at 3.0, 5.0
        directory.add_all(members)
        for node_id, time in crashes.items():
            directory.mark_failed(node_id, time=time)
        base, _ = directory.selectable_base(4.5)
        for now in (3.0, 3.5, 4.0, 4.999):
            assert directory.selectable_base(now)[0] is base, now
        assert base == self._fresh_scan(members, crashes, 1.0, 4.5)
        for now in (2.999, 0.0, 5.0, 7.0, 3.0, 4.5, 2.5):
            assert directory.selectable_base(now)[0] == self._fresh_scan(
                members, crashes, 1.0, now
            ), now
        assert directory.selectable_base(2.5)[0] is directory.selectable_base(-1.0)[0]

    def test_a_caller_cannot_edit_the_cached_list(self):
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add_all([10, 20, 30])
        directory.selectable(1.0).append(99)
        directory.selectable(1.0, exclude=20).append(99)
        assert directory.selectable(1.0) == [10, 20, 30]

    def test_exclusion_preserves_order_and_content(self):
        directory = MembershipDirectory(detection_delay=5.0)
        directory.add_all([10, 20, 30, 40])
        directory.mark_failed(20, time=0.0)
        assert directory.selectable(1.0, exclude=30) == [10, 20, 40]
        assert directory.selectable(10.0, exclude=30) == [10, 40]
        # The exclusion copy must not leak into the cached base list.
        assert directory.selectable(10.0) == [10, 30, 40]
