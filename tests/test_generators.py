"""Simple games from generators, listed without their table.

``simple_game_from_generators`` keeps the distinct generator ranks; for
g generators with g² ≤ 2^(n+1), ``critical._listing`` lists the
inclusion-minimal ones as the minimal winning coalitions, and otherwise
scans the lanes of the table, which is derived on first read. The same game built from its closure, taken by
the table route (``games._up_closure`` on the marked ranks) and given to
``SimpleGame``, lists by the lane scan. The two must give the same
listing, reports, game file, ``==``, hash and repr, on both sides of
g² ≤ 2^(n+1). The load-time checks keep their order on both constructors,
``analyze`` and ``potential`` on a 24-player file stay far below the size of
its table, and ``potential`` prints what the (2,2) embedding's table gives.
"""

import io
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

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
from pgindex.critical import _listing, minimal_critical_vectors
from pgindex.errors import CapExceeded, NonZeroAtOrigin, UnknownPlayer, ValidationError
from pgindex.games import _kept, _rational_str, _up_closure, coalition_index, embed_simple
from pgindex.indices import public_good_value_jk


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

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 8), few=st.booleans(), seed=st.integers(0, 10 ** 6))
    def test_trivial_reads_the_generators(self, n, few, seed):
        # a game kept as generators wins nowhere iff it has none; _draw gives none at times
        generators = _draw(n, few or n < 2, random.Random(seed))
        fast, table = _pair(n, generators)
        assert fast.trivial == table.trivial == (not generators)
        assert "levels" not in fast.__dict__

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
    @pytest.mark.parametrize("command", ("analyze", "mcv", "potential"))
    def test_analyze_and_mcv_leave_no_table(self, loaded, command, fmt, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"kind": "simple", "n": 12, "winning": [[1, 2], [3, 4, 5], [1, 2, 6]]}')
        assert cli.main([command, "--format", fmt, str(path)]) == 0
        capsys.readouterr()
        (game,) = loaded
        minimal = sorted(coalition_index(S, 12) for S in ({1, 2}, {3, 4, 5}))  # in rank order
        assert game.__dict__["_listing_mcc"].__dict__["_ranks"] == minimal
        assert "levels" not in game.__dict__ and "_lanes" not in game.__dict__

    def test_trivial_builds_no_table(self):
        game = simple_game_from_generators(22, [[1, 2, 3]])
        tracemalloc.start()
        try:
            assert game.trivial is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "levels" not in game.__dict__ and peak < 2 ** 20

    @pytest.mark.parametrize("fmt", ("table", "machine"))
    def test_oracle_refuses_before_the_embedding(self, loaded, fmt, tmp_path, capsys):
        # the (2,2) embedding would derive the 2^22-entry table the oracle then refuses
        path = tmp_path / "s22.json"
        path.write_text('{"kind": "simple", "n": 22, "winning": [[1, 2, 3]]}')
        assert cli.main(["analyze", "--oracle", "--format", fmt, str(path)]) == 0
        out = capsys.readouterr().out
        assert "oracle is capped at 19683 profiles, table has 4194304" in out
        assert "levels" not in loaded[0].__dict__

    def test_24_players_in_little_memory(self, tmp_path, capsys):
        # the table alone would be 2^24 entries, 128 MB as a tuple
        path = tmp_path / "s24.json"
        path.write_text('{"kind": "simple", "n": 24, "winning": [[1, 2, 3]]}')
        for command, shown in (("analyze", "{1,2,3}"), ("potential", "potential (recursive) = 1")):
            tracemalloc.start()
            try:
                assert cli.main([command, str(path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert shown in capsys.readouterr().out
            assert peak < 16 * 2 ** 20, command


def _embedded_recursive(game) -> tuple[int, int]:
    """The recursive potential by the route ``potential`` took before it read
    a simple game's own listing: the listed vectors of the (2,2) embedding,
    each adding its worth at its support size, read from its zeros; Q(N) / n!
    in lowest terms (see ``indices.jk_potential_recursive``)."""
    n, f = game.n, math.factorial
    embedded, worth = embed_simple(game), [0] * (n + 1)
    for x, w in minimal_critical_vectors(embedded).pairs():
        worth[n - x.count(0)] += w
    total = 0
    for s in range(1, n + 1):
        chains = sum(math.comb(n - s, t - s) * f(t - 1) * f(n - t) for t in range(s, n + 1))
        total += worth[s] * s * chains
    g = math.gcd(total, f(n))
    return total // g, f(n) // g


class TestPotentialRoute:
    """``potential`` on a generator file sums the listing ``analyze`` prints.
    The route it replaced is kept here as the reference: the (2,2) embedding,
    whose table the lane scan lists."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 10), few=st.booleans(), seed=st.integers(0, 10 ** 6))
    @example(n=0, few=True, seed=0)  # no generators
    @example(n=10, few=False, seed=1)
    @example(n=10, few=True, seed=2)
    def test_potential_matches_the_embedding(self, n, few, seed):
        if not few and n < 2:
            few = True  # at most one nonempty coalition: g² ≤ 2^(n+1) always
        generators = _draw(n, few, random.Random(seed))
        game = simple_game_from_generators(n, generators)
        direct = _kept(public_good_value_jk(embed_simple(game)), "potential")
        recursive = _embedded_recursive(game)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.json"
            path.write_text(json.dumps({"kind": "simple", "n": n, "winning": generators}))
            runs = {}
            for fmt in ("table", "machine"):
                out, err = io.StringIO(), io.StringIO()
                status = cli.run(cli.AnalysisRequest("potential", (str(path),), fmt), out, err)
                runs[fmt] = status, out.getvalue(), err.getvalue()
        table = (
            f"simple game on {n} players\n\n(via the (2,2) embedding)\n"
            f"potential (direct)    = {cli._frac_table(*direct)}\n"
            f"potential (recursive) = {cli._frac_table(*recursive)}\n"
            "routes agree: yes\n"
        )
        assert runs["table"] == (0, table, "")
        status, out, err = runs["machine"]
        assert (status, err) == (0, "")
        assert json.loads(out) == {
            "command": "potential",
            "game": {"kind": "simple", "n": n, "players": list(range(1, n + 1))},
            "potential": _rational_str(*direct),
            "recursive": _rational_str(*recursive),
            "match": True,
            "note": "via the (2,2) embedding",
        }
