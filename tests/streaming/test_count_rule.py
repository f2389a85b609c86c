"""The count rule the quality metrics apply is the one an MDS code gives.

:class:`~repro.metrics.quality.StreamQualityAnalyzer` counts a window as
decodable once ``WindowDescriptor.required_packets`` of its packets arrive,
whichever they are; no session encodes a byte.  That rule holds only for a
maximum-distance-separable FEC code, so the oracle here is one: a scalar
systematic Cauchy Reed–Solomon code over GF(256), one symbol per packet.
Any ``k`` of its ``k + m`` symbols must restore the ``k`` data symbols.

Below the oracle, the file checks the oracle itself (its arithmetic is
GF(256), its Cauchy rows are MDS, and ``k - 1`` symbols never pin a window
down), then holds both judges of a window in the product, the analyzer and
:class:`~repro.streaming.player.PlaybackBuffer`, to it at nine geometries.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.delivery import DeliveryLog
from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
from repro.streaming.player import PlaybackBuffer
from repro.streaming.schedule import StreamConfig, StreamSchedule

EXP, LOG = [0] * 510, [0] * 256
value = 1
for power in range(255):
    EXP[power] = EXP[power + 255] = value
    LOG[value] = power
    value = value << 1 ^ (0x11D if value & 0x80 else 0)


def mul(a, b):
    return EXP[LOG[a] + LOG[b]] if a and b else 0


def inv(a):
    return EXP[255 - LOG[a]]


def parity_rows(k, m):
    """Cauchy rows ``1 / ((k + i) ^ j)``: every square submatrix is invertible."""
    return [[inv((k + i) ^ j) for j in range(k)] for i in range(m)]


def dot(row, data):
    total = 0
    for coefficient, symbol in zip(row, data):
        total ^= mul(coefficient, symbol)
    return total


def decode(kept, k, rows):
    """The data from exactly ``k`` symbols ``{index: value}``, solving for the erased ones only."""
    erased = [j for j in range(k) if j not in kept]
    data = [kept.get(j, 0) for j in range(k)]
    system = [
        [rows[i - k][j] for j in erased] + [kept[i] ^ dot(rows[i - k], data)]
        for i in sorted(kept) if i >= k
    ]
    for col in range(len(erased)):
        pivot = next(r for r in range(col, len(erased)) if system[r][col])
        system[col], system[pivot] = system[pivot], system[col]
        system[col] = [mul(inv(system[col][col]), x) for x in system[col]]
        for r in range(len(erased)):
            if r != col:
                system[r] = [x ^ mul(system[r][col], y) for x, y in zip(system[r], system[col])]
    for row, j in zip(system, erased):
        data[j] = row[-1]
    return data


def assert_any_k_restore(k, m, patterns, rng):
    rows = parity_rows(k, m)
    for kept in patterns:
        data = [rng.randrange(256) for _ in range(k)]
        codeword = data + [dot(row, data) for row in rows]
        assert decode({i: codeword[i] for i in kept}, k, rows) == data, sorted(kept)


def test_any_required_packets_of_a_paper_window_restore_it():
    schedule = StreamSchedule(StreamConfig.paper_defaults(num_windows=1))
    (window,) = schedule.windows()
    k = window.required_packets
    m = len(window.packet_ids) - k
    assert (k, m) == (101, 9)
    assert StreamQualityAnalyzer(schedule, DeliveryLog(schedule), []).required_packets == k
    rng = random.Random(2009)
    patterns = [range(k), range(m, k + m)] + [rng.sample(range(k + m), k) for _ in range(200)]
    assert_any_k_restore(k, m, patterns, rng)


def test_every_erasure_pattern_of_a_small_window():
    assert_any_k_restore(5, 2, itertools.combinations(range(7), 5), random.Random(7))


# ----------------------------------------------------------------------
# The oracle itself: its arithmetic is GF(256) and its code is MDS.
# ----------------------------------------------------------------------

byte = st.integers(min_value=0, max_value=255)

GEOMETRIES = [(101, 9), (20, 2), (10, 1), (6, 2), (5, 3), (4, 0), (3, 7), (2, 6), (1, 1)]
"""``(k, m)``: the paper's window, the scaled-down one, and small ones down to
no parity at all and more parity than data."""


def encode(data, rows):
    """The systematic codeword: the data symbols, then one parity symbol per row."""
    return list(data) + [dot(row, data) for row in rows]


def carryless_product(a, b):
    """``a * b`` by shift and add, reduced modulo the field polynomial 0x11D."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return product


def rank(matrix):
    """The rank of a matrix over GF(256), by Gaussian elimination."""
    rows = [list(row) for row in matrix]
    found = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        rows[found] = [mul(inv(rows[found][col]), x) for x in rows[found]]
        for r in range(len(rows)):
            if r != found:
                rows[r] = [x ^ mul(rows[r][col], y) for x, y in zip(rows[r], rows[found])]
        found += 1
    return found


class TestOracleField:
    def test_exp_table_runs_through_every_nonzero_element(self):
        assert sorted(EXP[:255]) == list(range(1, 256))
        assert EXP[255:] == EXP[:255]

    def test_log_inverts_exp(self):
        assert all(EXP[LOG[a]] == a for a in range(1, 256))

    def test_multiply_by_zero_and_one(self):
        for a in range(256):
            assert mul(a, 0) == mul(0, a) == 0
            assert mul(a, 1) == mul(1, a) == a

    def test_known_product(self):
        # 2 * 128 wraps through the field polynomial: 0x100 ^ 0x11D = 0x1D.
        assert mul(2, 128) == 0x1D

    def test_multiplication_matches_shift_and_add(self):
        for a in range(256):
            for b in range(256):
                assert mul(a, b) == carryless_product(a, b), (a, b)

    def test_multiplication_commutative(self):
        assert all(mul(a, b) == mul(b, a) for a in range(256) for b in range(a))

    def test_every_nonzero_element_has_an_inverse(self):
        assert all(mul(a, inv(a)) == 1 for a in range(1, 256))

    def test_no_zero_divisors(self):
        assert all(mul(a, b) for a in range(1, 256) for b in range(1, 256))

    @given(byte, byte, byte)
    def test_multiplication_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(byte, byte, byte)
    def test_distributivity(self, a, b, c):
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


class TestCauchyRows:
    @pytest.mark.parametrize("k,m", [(k, m) for k, m in GEOMETRIES if m])
    def test_every_coefficient_is_nonzero(self, k, m):
        rows = parity_rows(k, m)
        assert len(rows) == m
        assert all(len(row) == k and all(row) for row in rows)

    @pytest.mark.parametrize("k,m", [(5, 2), (5, 3), (4, 4), (3, 7), (2, 6)])
    def test_every_square_submatrix_is_invertible(self, k, m):
        """The MDS property itself: any ``e`` parity rows solve any ``e`` erased data symbols."""
        rows = parity_rows(k, m)
        for size in range(1, min(k, m) + 1):
            for picked in itertools.combinations(rows, size):
                for columns in itertools.combinations(range(k), size):
                    submatrix = [[row[j] for j in columns] for row in picked]
                    assert rank(submatrix) == size, (columns, submatrix)


class TestOracleCode:
    def test_intact_data_decodes_to_itself(self):
        rng = random.Random(41)
        data = [rng.randrange(256) for _ in range(101)]
        assert decode(dict(enumerate(data)), 101, parity_rows(101, 9)) == data

    @pytest.mark.parametrize("k,m", [(5, 3), (4, 4), (3, 7), (8, 2), (6, 0), (1, 3)])
    def test_any_k_symbols_restore_a_small_window(self, k, m):
        patterns = itertools.combinations(range(k + m), k)
        assert_any_k_restore(k, m, patterns, random.Random(100 * k + m))

    @pytest.mark.parametrize("k,m", [(101, 9), (20, 2), (5, 3), (4, 0), (1, 1)])
    def test_fewer_than_k_symbols_leave_the_window_open(self, k, m):
        """Two different windows share any ``k - 1`` symbols, so the rule cannot ask for fewer."""
        rows = parity_rows(k, m)
        rng = random.Random(k + m)
        for _ in range(20):
            *kept, extra = rng.sample(range(k + m), k)
            other = decode({**dict.fromkeys(kept, 0), extra: 1}, k, rows)
            codeword = encode(other, rows)
            assert codeword[extra] == 1
            assert [codeword[i] for i in kept] == [0] * len(kept)

    @given(st.integers(1, 12), st.integers(0, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_any_k_symbols_of_a_random_code_restore_it(self, k, m, rng):
        assert_any_k_restore(k, m, [rng.sample(range(k + m), k)], rng)

    @given(st.integers(1, 12), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_encoding_is_linear(self, k, m, draw):
        rows = parity_rows(k, m)
        a, b = (draw.draw(st.lists(byte, min_size=k, max_size=k)) for _ in range(2))
        summed = encode([x ^ y for x, y in zip(a, b)], rows)
        assert summed == [x ^ y for x, y in zip(encode(a, rows), encode(b, rows))]


# ----------------------------------------------------------------------
# The product's two judges of a window against the oracle.
# ----------------------------------------------------------------------


def single_window(k, m):
    """One window of ``k + m`` packets published a second apart, so lags stay exact."""
    config = StreamConfig(
        rate_kbps=8.0,
        payload_bytes=1000,
        source_packets_per_window=k,
        fec_packets_per_window=m,
        num_windows=1,
    )
    schedule = StreamSchedule(config)
    (window,) = schedule.windows()
    return schedule, window


def delivery_patterns(k, m, rng):
    """Which packets of a window arrive: every subset of a small window, else
    the edge cases and seeded samples of ``k - 1`` to ``k + m`` packets."""
    n = k + m
    if n <= 10:
        return [c for size in range(n + 1) for c in itertools.combinations(range(n), size)]
    patterns = [range(k), range(m, n), range(k - 1), range(m + 1, n)]
    for size in range(k - 1, n + 1):
        patterns += [rng.sample(range(n), size) for _ in range(25)]
    return patterns


def restores(k, m, arrived, rng):
    """Whether the oracle gets a random window back from the ``arrived`` symbols.

    Fewer than ``k`` never do: they fit two windows
    (``test_fewer_than_k_symbols_leave_the_window_open``).
    """
    if len(arrived) < k:
        return False
    rows = parity_rows(k, m)
    data = [rng.randrange(256) for _ in range(k)]
    codeword = encode(data, rows)
    kept = rng.sample(sorted(arrived), k)
    return decode({i: codeword[i] for i in kept}, k, rows) == data


class TestTheJudgesApplyTheOracleRule:
    @pytest.mark.parametrize("k,m", GEOMETRIES)
    def test_analyzer_views_a_window_exactly_when_the_oracle_restores_it(self, k, m):
        schedule, window = single_window(k, m)
        rng = random.Random(100 * k + m)
        patterns = delivery_patterns(k, m, rng)
        log = DeliveryLog(schedule)
        for node, pattern in enumerate(patterns):
            for index in pattern:
                packet_id = window.packet_ids[index]
                log.record(node, packet_id, schedule.packet(packet_id).publish_time + 1.0)
        analyzer = StreamQualityAnalyzer(schedule, log, range(len(patterns)))
        for node, pattern in enumerate(patterns):
            viewable = analyzer.window_viewable(node, 0, OFFLINE_LAG)
            assert viewable == restores(k, m, pattern, rng), sorted(pattern)

    @pytest.mark.parametrize("k,m", GEOMETRIES)
    def test_player_plays_a_window_exactly_when_the_oracle_restores_it(self, k, m):
        schedule, window = single_window(k, m)
        rng = random.Random(100 * k + m)
        for pattern in delivery_patterns(k, m, rng):
            player = PlaybackBuffer(schedule, lag=OFFLINE_LAG)
            for index in pattern:
                player.on_packet(window.packet_ids[index], 1.0e6)
            (played,) = player.report().windows
            assert played.viewable == restores(k, m, pattern, rng), sorted(pattern)

    @pytest.mark.parametrize("k,m", GEOMETRIES)
    def test_a_window_plays_from_the_lag_of_its_kth_arrival(self, k, m):
        """Packets arrive in a shuffled order that mixes data and parity; both
        judges turn at the ``k``-th arrival, where the oracle does."""
        schedule, window = single_window(k, m)
        rng = random.Random(7 * k + m)
        order = rng.sample(range(k + m), k + m)
        lag_of = {index: 0.5 + 0.25 * position for position, index in enumerate(order)}
        arrivals = {
            window.packet_ids[index]: schedule.packet(window.packet_ids[index]).publish_time + lag
            for index, lag in lag_of.items()
        }
        log = DeliveryLog(schedule)
        for packet_id, time in arrivals.items():
            log.record(0, packet_id, time)
        analyzer = StreamQualityAnalyzer(schedule, log, [0])
        turning = lag_of[order[k - 1]]
        assert analyzer.node_critical_lag(0) == turning
        for lag, expected in ((turning - 0.125, False), (turning, True)):
            player = PlaybackBuffer(schedule, lag)
            for packet_id, time in arrivals.items():
                player.on_packet(packet_id, time)
            (played,) = player.report().windows
            on_time = [index for index, arrival_lag in lag_of.items() if arrival_lag <= lag]
            assert analyzer.window_viewable(0, 0, lag) == played.viewable == expected
            assert restores(k, m, on_time, rng) == expected

    @pytest.mark.parametrize("k,m", [(20, 2), (4, 0)])
    def test_a_packet_arriving_twice_counts_once(self, k, m):
        schedule, window = single_window(k, m)
        log = DeliveryLog(schedule)
        player = PlaybackBuffer(schedule, lag=OFFLINE_LAG)
        for packet_id in window.packet_ids[: k - 1] + window.packet_ids[:1]:
            log.record(0, packet_id, 1.0e6)
            player.on_packet(packet_id, 1.0e6)
        assert not StreamQualityAnalyzer(schedule, log, [0]).window_viewable(0, 0, OFFLINE_LAG)
        (played,) = player.report().windows
        assert not played.viewable
        assert played.packets_on_time == k - 1


@pytest.mark.parametrize(
    "config",
    [
        StreamConfig.paper_defaults(num_windows=3),
        StreamConfig.scaled_down(num_windows=3),
        StreamConfig(source_packets_per_window=5, fec_packets_per_window=3, num_windows=3),
        StreamConfig(source_packets_per_window=4, fec_packets_per_window=0, num_windows=3),
    ],
    ids=["paper", "scaled-down", "5+3", "no-parity"],
)
def test_every_window_needs_its_source_count_of_its_packets(config):
    schedule = StreamSchedule(config)
    assert StreamQualityAnalyzer(schedule, DeliveryLog(schedule), []).required_packets == (
        config.source_packets_per_window
    )
    for window in schedule.windows():
        assert len(window.packet_ids) == config.packets_per_window
        assert window.required_packets == config.source_packets_per_window
