"""Simple games from generators, listed without their table.

``simple_game_from_generators`` keeps the distinct generator ranks; for
g generators with g² ≤ 2^(n+1), ``critical._listing`` lists the
inclusion-minimal ones as the minimal winning coalitions, and otherwise
scans the lanes of the table, which is derived on first read. The same game built from its closure, taken by
the table route (``games._up_closure`` on the marked ranks) and given to
``SimpleGame``, lists by the lane scan. The two must give the same
listing, reports, game file, ``==``, hash and repr, on both sides of
g² ≤ 2^(n+1). The load-time checks keep their order on both constructors, and
``analyze`` on a 24-player file stays far below the size of its table.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgindex import (
    SimpleGame,
    TrivialGame,
    cli,
    game_to_dict,
    make_simple_game,
    minimal_winning_coalitions,
    pgi_normalized,
    pgi_raw,
    simple_game_from_generators,
)
from pgindex.critical import _listing
from pgindex.errors import CapExceeded, NonZeroAtOrigin, UnknownPlayer, ValidationError
from pgindex.games import _kept, _up_closure, coalition_index


def _members(rank: int, n: int) -> list[int]:
    return [i for i in range(1, n + 1) if rank >> (n - i) & 1]


def _draw(n: int, few: bool, rng: random.Random) -> list[list[int]]:
    """Generators with repeats, supersets and singletons, as member lists in
    any order: at most sqrt(2^(n+1)) distinct ranks when ``few``, more otherwise."""
    full, bound = (1 << n) - 1, math.isqrt(2 << n)
    distinct = rng.randint(0, min(bound, full)) if few else rng.randint(bound + 1, full)
    ranks = rng.sample(range(1, full + 1), distinct)
    for r in ranks[: distinct // 2]:  # a superset or a singleton of a drawn rank, or a repeat
        extra = rng.choice((r | rng.randint(0, full), 1 << rng.randrange(n), r))
        if not few or len({*ranks, extra}) <= bound:
            ranks.append(extra)
    rng.shuffle(ranks)
    return [rng.sample(_members(r, n), r.bit_count()) for r in ranks]


def _pair(n: int, generators) -> tuple[SimpleGame, SimpleGame]:
    """The game from its generators and from its closure by the table route."""
    marks = bytearray(1 << n)
    for S in generators:
        marks[coalition_index(S, n)] = 1
    return simple_game_from_generators(n, generators), SimpleGame(n, _up_closure(n, 2, marks))


def _reports(game):
    try:
        return pgi_raw(game), pgi_normalized(game)
    except TrivialGame:
        return pgi_raw(game), None


class TestGeneratorRoute:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 10), few=st.booleans(), seed=st.integers(0, 10 ** 6))
    @example(n=2, few=False, seed=0)
    @example(n=10, few=False, seed=1)
    @example(n=10, few=True, seed=2)
    def test_listing_matches_table_route(self, n, few, seed):
        if not few and n < 2:
            few = True  # at most one nonempty coalition: g² ≤ 2^(n+1) always
        generators = _draw(n, few, random.Random(seed))
        fast, table = _pair(n, generators)
        distinct = len({coalition_index(S, n) for S in generators})
        listed, scanned = _listing(fast), _listing(table)
        assert ("_lanes" not in fast.__dict__) == few == (distinct ** 2 <= 2 << n)
        assert listed.__dict__["_ranks"] == scanned.__dict__["_ranks"]
        assert _kept(listed, "worths") == _kept(scanned, "worths")
        assert listed == scanned
        assert minimal_winning_coalitions(fast) == minimal_winning_coalitions(table)
        assert _reports(fast) == _reports(table)
        assert game_to_dict(fast) == game_to_dict(table)
        if few:  # none of the above needed the table
            assert "levels" not in fast.__dict__ and "_lanes" not in fast.__dict__
        assert (fast, hash(fast), repr(fast)) == (table, hash(table), repr(table))

    def test_equal_before_any_listing(self):
        fast, table = _pair(4, [[1, 2], [3, 4], [2, 1, 3]])
        assert (fast, hash(fast), repr(fast)) == (table, hash(table), repr(table))
        assert fast.levels == table.levels and fast.winning == table.winning


class TestLoadOrder:
    """Shape, then the cap, then coalition by coalition an unknown player
    or the empty coalition, on both constructors; the first failure wins."""

    CONSTRUCTORS = (make_simple_game, simple_game_from_generators)

    @pytest.mark.parametrize("make", CONSTRUCTORS)
    @pytest.mark.parametrize(
        "n, coalitions, error",
        [
            (-1, [[], [99]], ValidationError),
            (30, [[], [99]], CapExceeded),
            (3, [[99], []], UnknownPlayer),
            (3, [[], [99]], NonZeroAtOrigin),
            (3, [[1], [1, 2], [4]], UnknownPlayer),
            (3, [[1], [1, 2], []], NonZeroAtOrigin),
        ],
    )
    def test_first_failure_wins(self, make, n, coalitions, error):
        with pytest.raises(error) as info:
            make(n, coalitions)
        assert type(info.value) is error

    @pytest.mark.parametrize("make", CONSTRUCTORS)
    def test_shape_and_cap_before_the_coalitions(self, make):
        def never():
            raise AssertionError("coalitions read before the shape and the cap")
            yield

        for n, error in ((-1, ValidationError), (30, CapExceeded)):
            with pytest.raises(error):
                make(n, never())


class TestNoTable:
    @pytest.fixture
    def loaded(self, monkeypatch):
        games, load = [], cli.load_game

        def keeping(path, **kwargs):
            games.append(load(path, **kwargs))
            return games[-1]

        monkeypatch.setattr(cli, "load_game", keeping)
        return games

    @pytest.mark.parametrize("fmt", ("table", "machine"))
    @pytest.mark.parametrize("command", ("analyze", "mcv"))
    def test_analyze_and_mcv_leave_no_table(self, loaded, command, fmt, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"kind": "simple", "n": 12, "winning": [[1, 2], [3, 4, 5], [1, 2, 6]]}')
        assert cli.main([command, "--format", fmt, str(path)]) == 0
        capsys.readouterr()
        (game,) = loaded
        minimal = sorted(coalition_index(S, 12) for S in ({1, 2}, {3, 4, 5}))  # in rank order
        assert game.__dict__["_listing_mcc"].__dict__["_ranks"] == minimal
        assert "levels" not in game.__dict__ and "_lanes" not in game.__dict__

    def test_24_players_in_little_memory(self, tmp_path, capsys):
        # the table alone would be 2^24 entries, 128 MB as a tuple
        path = tmp_path / "s24.json"
        path.write_text('{"kind": "simple", "n": 24, "winning": [[1, 2, 3]]}')
        tracemalloc.start()
        try:
            assert cli.main(["analyze", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "{1,2,3}" in capsys.readouterr().out
        assert peak < 16 * 2 ** 20
