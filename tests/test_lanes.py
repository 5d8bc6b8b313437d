"""The lane kernels against the entry-by-entry routes they replace.

``critical._lane_scan`` reads a byte table as one int with a byte lane per
rank; ``critical._entry_scan`` is the loop it must agree with on every
table, monotone or not. ``games._up_closure`` must agree with the running
maximum along each axis, kept here as the reference, on every 0/1 table.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    make_simple_game,
    make_table_game,
    make_tu_game,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    minimal_critical_vectors_oracle,
    minimal_winning_coalitions,
    single_mcv_game,
    simple_game_from_generators,
)
from pgindex import critical
from pgindex.critical import _entry_scan, _lane_scan, _predecessor_scan
from pgindex.games import _axis_steps, _up_closure, all_coalitions

from gamegen import random_monotone_jk


def _axis_max(table: list, n: int, j: int) -> list:
    """Running maximum along each axis in place: each entry becomes the
    maximum at or below it, the reference closure."""
    for _, lower, upper in _axis_steps(n, j, len(table)):
        table[upper] = [p if p > q else q for p, q in zip(table[upper], table[lower])]
    return table


def _table(n, j, k, kind, rng):
    """A table of the given kind: arbitrary entries, monotone, or with the
    origin above the minimum (so the minimum is not at rank 0)."""
    size = j ** n
    if kind == "monotone":
        return list(random_monotone_jk(n, j, k, rng).levels)
    table = [rng.randrange(k) for _ in range(size)]
    if kind == "origin_above_min":
        low = rng.randrange(k - 1)
        table = [max(low, v) for v in table]
        table[rng.randrange(1, size) if size > 1 else 0] = low
        table[0] = rng.randrange(low + 1, k)
    return table


def _refuse(monkeypatch, name):
    def refuse(*args):
        raise AssertionError(f"{name} used")

    monkeypatch.setattr(critical, name, refuse)


shapes = st.tuples(st.integers(0, 6), st.integers(2, 4), st.integers(2, 6))


class TestLaneScan:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=shapes,
        kind=st.sampled_from(("arbitrary", "monotone", "origin_above_min")),
        seed=st.integers(0, 10 ** 6),
    )
    def test_matches_entry_scan(self, shape, kind, seed):
        n, j, k = shape
        table = _table(n, j, k, kind, random.Random(seed))
        expected = _entry_scan(n, j, table)
        assert _lane_scan(n, j, bytes(table)) == expected
        assert _predecessor_scan(n, j, bytes(table)) == expected

    def test_origin_lane_is_masked(self):
        # the minimum 0 is at rank 1 and the origin holds the top entry 2,
        # which no predecessor reaches; the origin is still never listed
        table = (2, 0, 1, 2)
        assert _entry_scan(1, 4, table) == [(2, (2,), 1), (3, (3,), 2)]
        assert _lane_scan(1, 4, bytes(table)) == _entry_scan(1, 4, table)

    def test_full_byte_range(self):
        table = list(range(256))
        assert _lane_scan(1, 256, bytes(table)) == _entry_scan(1, 256, table)
        assert len(_lane_scan(1, 256, bytes(table))) == 255

    def test_jk_and_simple_games_take_the_lanes(self, monkeypatch):
        _refuse(monkeypatch, "_entry_scan")
        game = random_monotone_jk(4, 3, 4, random.Random(7))
        assert minimal_critical_vectors(game) == minimal_critical_vectors_oracle(game)
        game = make_simple_game(3, [{1}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}])
        assert minimal_winning_coalitions(game) == {frozenset({1}), frozenset({2, 3})}


class TestLoopRoutes:
    """Tables that do not fit a byte lane, and TU numerators, keep the loop."""

    def test_k_beyond_256(self, monkeypatch):
        _refuse(monkeypatch, "_lane_scan")
        game = make_table_game(2, 3, 300, (0, 1, 299, 257, 257, 299, 257, 258, 299))
        mcv = minimal_critical_vectors(game)
        assert mcv == minimal_critical_vectors_oracle(game)
        assert mcv.as_dict() == {(0, 1): 1, (0, 2): 299, (1, 0): 257, (2, 1): 258}

    def test_tu_numerators(self, monkeypatch):
        _refuse(monkeypatch, "_lane_scan")
        game = make_tu_game(2, {(): 0, (1,): "1/2", (2,): 3, (1, 2): 3})
        assert minimal_critical_coalitions(game) == {frozenset({1}), frozenset({2})}


class TestUpClosure:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 6),
        j=st.integers(2, 4),
        density=st.sampled_from((0.0, 0.02, 0.2, 1.0)),
        seed=st.integers(0, 10 ** 6),
    )
    def test_matches_axis_max(self, n, j, density, seed):
        rng = random.Random(seed)
        marks = [int(rng.random() < density) for _ in range(j ** n)]
        assert list(_up_closure(n, j, bytes(marks))) == _axis_max(list(marks), n, j)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), j=st.integers(2, 4), seed=st.integers(0, 10 ** 6))
    def test_single_mcv_game_is_the_closure_of_its_vector(self, n, j, seed):
        rng = random.Random(seed)
        x = tuple(rng.randrange(j) for _ in range(n))
        if not any(x):
            x = (1,) + x[1:]
        worth, k = rng.randrange(1, 300), 300
        table = [0] * j ** n
        table[sum(a * j ** (n - 1 - p) for p, a in enumerate(x))] = worth
        assert list(single_mcv_game(x, worth, j, k).levels) == _axis_max(table, n, j)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_generators_close_upward(self, n):
        coalitions = list(all_coalitions(n))[1:]
        generators = coalitions[::3]
        game = simple_game_from_generators(n, generators)
        winning = {S for S in coalitions if any(G <= S for G in generators)}
        assert game.winning == winning
