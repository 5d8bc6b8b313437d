"""The lane kernels against the entry-by-entry routes they replace.

``critical._predecessor_ranks`` reads the lane view of any integer table
(``games._rank_lanes``: its entries ranked and packed into one int with a
lane of 1, 2 or 4 bytes per table rank); ``_entry_scan``, the loop it
replaced, is kept here as the reference it must agree with on every
table, monotone or not.
``games._up_closure`` must agree with the running maximum along each
axis, also kept here as the reference, on every 0/1 table. The rank codec
(``games._halves`` and what is joined from it: ``games._coalitions``,
``gamefile._coalition_keys`` and the profiles of a listing) must agree
with ``coalition_from_index``, ``coalition_key`` and ``index_profile``,
which read one rank at a time.
``games._flagged``, which reads the flagged lanes of every lane kernel,
must agree with ``_find_flagged``, the ``bytes.find`` loop it replaced.
The real gaining route of ``_predecessor_ranks`` (its down-max on lanes)
must agree with ``critical._real_gaining``, the literal all-subsets scan
that stays in the package as the TU oracle. ``games._descents``, the
monotone and hole checks on the same lane view, must agree with
``_entry_descents``, the entry-by-entry compare kept here, and so must
``algebra._null_players`` with the entry compare along each axis, and
the subset-sum pass behind ``tests/test_indices.py``'s memo reference
with the sum over each coalition's subsets.
"""

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pgindex import (
    JKGame,
    SimpleGame,
    cli,
    dump_game,
    games,
    is_null_player,
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
from pgindex.algebra import _null_players
from pgindex.critical import (
    _down_max,
    _listing,
    _predecessor_ranks,
    _real_gaining,
)
from pgindex.errors import MonotonicityViolation
from pgindex.gamefile import _coalition_keys
from pgindex.games import (
    _axis_lanes,
    _coalitions,
    _descents,
    _flagged,
    _halves,
    _rank_lanes,
    _up_closure,
    all_coalitions,
    all_profiles,
    index_profile,
    profile_index,
)
from gamegen import random_monotone_jk, random_monotone_tu, random_tu
from test_indices import _subset_sums


def _lane_scan(n: int, j: int, table) -> list:
    """``_predecessor_ranks`` on the table's own lane view, each rank with
    its profile and entry, as ``_entry_scan`` lists them."""
    ranks = _predecessor_ranks(_rank_lanes(n, j, table))
    return [(r, index_profile(r, n, j), table[r]) for r in ranks]


def coalition_from_index(idx: int, n: int) -> frozenset:
    """The coalition of one rank, bit by bit: the codec's reference."""
    return frozenset(i for i in range(1, n + 1) if idx >> (n - i) & 1)


def coalition_key(coalition) -> str:
    """The canonical worth key of one coalition: the codec's reference."""
    return ",".join(str(i) for i in sorted(coalition))


def _gaining_ranks(n: int, table) -> list[int]:
    """``_predecessor_ranks`` against the down-max on the table's lane view."""
    return _predecessor_ranks(_rank_lanes(n, 2, table), gaining=True)


def _lane_descents(n: int, j: int, table) -> list:
    """``_descents`` on the table's own lane view."""
    return list(_descents(_rank_lanes(n, j, table)))


def _entry_scan(n: int, j: int, table) -> list:
    """The predecessor scan entry by entry, the reference: every profile but
    the origin whose entry exceeds each immediate predecessor's. Entries at
    the table's minimum can beat nothing and are skipped."""
    strides = [j ** (n - 1 - p) for p in range(n)]
    floor = min(table)
    profiles = all_profiles(n, j)
    next(profiles)  # the origin has no predecessor to beat
    found = []
    for idx, x in enumerate(profiles, 1):
        level = table[idx]
        if level == floor:
            continue
        if all(table[idx - strides[p]] < level for p in range(n) if x[p]):
            found.append((idx, x, level))
    return found


def _axis_max(table: list, n: int, j: int) -> list:
    """Running maximum along each axis in place, entry by entry: each entry
    becomes the maximum at or below it, the reference closure."""
    for p in range(n):
        stride = j ** (n - 1 - p)
        for rank, x in enumerate(all_profiles(n, j)):
            if x[p]:
                table[rank] = max(table[rank], table[rank - stride])
    return table


def _entry_descents(n: int, j: int, table) -> list:
    """``(rank, stride)`` wherever raising one coordinate lowers the entry,
    entry by entry, the reference: axis by axis, each in rank order."""
    found = []
    for p in range(n):
        stride = j ** (n - 1 - p)
        for rank, x in enumerate(all_profiles(n, j)):
            if x[p] < j - 1 and table[rank] > table[rank + stride]:
                found.append((rank, stride))
    return found


def _find_flagged(flags: int, width: int) -> list[int]:
    """The flagged lanes found one ``bytes.find`` at a time, the reference
    ``games._flagged`` must agree with."""
    ones = flags >> (8 * width - 1)
    data = ones.to_bytes((ones.bit_length() + 7) // 8, "little")
    found, i = [], data.find(1)
    while i >= 0:
        found.append(i // width)
        i = data.find(1, i + width)
    return found


def _flags(ranks, lanes: int, width: int) -> int:
    """The top bit of each lane of ``width`` bytes whose rank is in ``ranks``."""
    packed = bytearray(lanes * width)
    for r in ranks:
        packed[r * width + width - 1] = 0x80
    return int.from_bytes(packed, "little")


def _table(n, j, k, kind, rng):
    """A table of the given kind with entries in 0..k-1: arbitrary,
    monotone, or with the origin above the minimum (so the minimum is not
    at rank 0)."""
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


def _distinct_table(n, j, kind, rng):
    """A table with j^n distinct entries: a shuffle, or a monotone one
    whose entry has one digit per axis in base j^n, increasing along the
    axis; for ``origin_above_min`` the minimum is kept off the origin."""
    size = j ** n
    if kind == "monotone":
        table = [0]
        for _ in range(n):
            digits = [0] + sorted(rng.sample(range(1, size), j - 1))
            table = [t * size + d for t in table for d in digits]
        return table
    table = list(range(size))
    rng.shuffle(table)
    if kind == "origin_above_min" and table[0] == 0:
        table[0], table[-1] = table[-1], table[0]
    return table


#: order-preserving maps: one-byte keys as they stand, negative entries,
#: and entries beyond 2^64
SPREADS = {
    "as_is": lambda v: v,
    "negative": lambda v: v - 3,
    "beyond_2_64": lambda v: (v + 1) * (2 ** 64 + 1) - 2 ** 65,
}

shapes = st.tuples(st.integers(0, 6), st.integers(2, 4), st.integers(2, 6))
kinds = st.sampled_from(("arbitrary", "monotone", "origin_above_min"))


class TestLaneScan:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=shapes,
        kind=kinds,
        spread=st.sampled_from(sorted(SPREADS)),
        seed=st.integers(0, 10 ** 6),
    )
    def test_matches_entry_scan(self, shape, kind, spread, seed):
        n, j, k = shape
        table = [SPREADS[spread](v) for v in _table(n, j, k, kind, random.Random(seed))]
        assert _lane_scan(n, j, table) == _entry_scan(n, j, table)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(((8, 2), (5, 3), (4, 4), (6, 3))),
        kind=kinds,
        spread=st.sampled_from(sorted(SPREADS)),
        seed=st.integers(0, 10 ** 6),
    )
    def test_two_byte_lanes(self, shape, kind, spread, seed):
        # more than 128 distinct entries: ranks beyond 127 need 2-byte lanes
        n, j = shape
        table = _distinct_table(n, j, kind, random.Random(seed))
        table = [SPREADS[spread](v) for v in table]
        assert 128 < len(set(table)) <= 2 ** 15
        assert _lane_scan(n, j, table) == _entry_scan(n, j, table)

    # no shrinking: each step would rerun the reference loop on 2^16 entries
    @settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(kind=kinds, seed=st.integers(0, 10 ** 6))
    def test_four_byte_lanes(self, kind, seed):
        # 2^16 distinct entries: more ranks than a 2-byte lane's 2^15 keys
        table = _distinct_table(16, 2, kind, random.Random(seed))
        assert len(set(table)) == 2 ** 16
        assert _lane_scan(16, 2, table) == _entry_scan(16, 2, table)

    @pytest.mark.parametrize("distinct", (128, 129, 2 ** 15, 2 ** 15 + 1))
    def test_lane_width_boundaries(self, distinct):
        # the most distinct entries a lane holds, and one more
        table = list(range(distinct))
        random.Random(distinct).shuffle(table)
        assert _lane_scan(1, distinct, table) == _entry_scan(1, distinct, table)

    @pytest.mark.parametrize("entry", (0, 5, -3, 2 ** 70))
    def test_no_players(self, entry):
        assert _lane_scan(0, 3, [entry]) == _entry_scan(0, 3, [entry]) == []

    def test_origin_lane_is_masked(self):
        # the minimum is at rank 1 and the origin holds the top entry, which
        # no predecessor reaches; the origin is still never listed
        for spread in SPREADS.values():
            low, mid, top = map(spread, (0, 1, 2))
            table = (top, low, mid, top)
            assert _entry_scan(1, 4, table) == [(2, (2,), mid), (3, (3,), top)]
            assert _lane_scan(1, 4, table) == _entry_scan(1, 4, table)

    def test_full_byte_range(self):
        # 256 distinct entries, beyond a 1-byte lane's 0..127
        table = list(range(256))
        assert _lane_scan(1, 256, table) == _entry_scan(1, 256, table)
        assert len(_lane_scan(1, 256, table)) == 255

    def test_jk_and_simple_games_take_the_lanes(self):
        game = random_monotone_jk(4, 3, 4, random.Random(7))
        assert minimal_critical_vectors(game) == minimal_critical_vectors_oracle(game)
        game = make_simple_game(3, [{1}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}])
        assert minimal_winning_coalitions(game) == {frozenset({1}), frozenset({2, 3})}


class TestFlagged:
    @pytest.mark.parametrize("width", (1, 2, 4))
    @pytest.mark.parametrize("density", (0, 0.001, 0.05, 0.5, 0.95, 1))
    @pytest.mark.parametrize("lanes", (1, 7, 4099))
    def test_matches_find_loop(self, width, density, lanes):
        rng = random.Random(lanes * 31 + width)
        ranks = [r for r in range(lanes) if rng.random() < density]
        flags = _flags(ranks, lanes, width)
        assert _flagged(flags, width) == _find_flagged(flags, width) == ranks

    @pytest.mark.parametrize("width", (1, 2, 4))
    def test_no_flags(self, width):
        assert _flagged(0, width) == _find_flagged(0, width) == []

    @settings(max_examples=150, deadline=None)
    @given(ranks=st.sets(st.integers(0, 300)), width=st.sampled_from((1, 2, 4)))
    def test_any_ranks(self, ranks, width):
        flags = _flags(ranks, 301, width)
        assert _flagged(flags, width) == _find_flagged(flags, width) == sorted(ranks)


@pytest.mark.parametrize("n", range(13))
def test_coalitions_join_the_halves_of_each_rank(n):
    # every rank, and a sparse selection out of order with repeats
    ranks = [*range(1 << n), *range((1 << n) - 1, -1, -3)]
    assert _coalitions(n, ranks) == tuple(coalition_from_index(r, n) for r in ranks)


#: n = 0..12 for j = 2, 3, 4, up to 3^12 profiles: the references take a step per profile
CODEC_SHAPES = [(n, j) for j in (2, 3, 4) for n in range(13) if j ** n <= 3 ** 12]


class TestRankCodec:
    """Every rank's profile and worth key joined from the halves, and each
    winning coalition, against the one-rank references (the coalitions of
    any ranks are checked above); at n = 0 and n = 1 the high half is the
    one empty profile."""

    @pytest.mark.parametrize("n, j", CODEC_SHAPES)
    def test_halves_split_each_rank(self, n, j):
        high, low = _halves(n, j, lambda x, first: (x, first))
        assert [x for x, _ in high] == list(all_profiles(n // 2, j))
        assert [x for x, _ in low] == list(all_profiles(n - n // 2, j))
        assert {first for _, first in high} == {1}
        assert {first for _, first in low} == {n // 2 + 1}
        joined = [high[h][0] + low[q][0] for h, q in (divmod(r, len(low)) for r in range(j ** n))]
        assert joined == [index_profile(r, n, j) for r in range(j ** n)]

    @pytest.mark.parametrize("n", range(13))
    def test_worth_keys(self, n):
        coalitions = [coalition_from_index(r, n) for r in range(1 << n)]
        assert _coalition_keys(n, range(1 << n)) == [*map(coalition_key, coalitions)]
        # any separator, as the CLI's JSON member lists take the pad's; any ranks
        ranks = [*range((1 << n) - 1, -1, -3), 0, 0]
        want = [coalition_key(coalition_from_index(r, n)).replace(",", ",\n  ") for r in ranks]
        assert _coalition_keys(n, ranks, ",\n  ") == want

    @pytest.mark.parametrize("n, j", CODEC_SHAPES)
    def test_listing_profiles(self, n, j):
        # every rank but the origin is listed: the entry is the coordinate sum
        levels = [*map(sum, all_profiles(n, j))]
        game = JKGame(n, j, max(levels) + 2, levels)  # k >= 2 at n = 0 too
        listing = _listing(game)
        assert listing.vectors == tuple(index_profile(r, n, j) for r in range(1, j ** n))
        assert listing.worths == tuple(levels[1:])

    @pytest.mark.parametrize("n", range(13))
    def test_winning_coalitions(self, n):
        # a coalition wins when it holds player n; at n = 0 none wins
        levels = [r & 1 for r in range(1 << n)]
        game = SimpleGame(n, levels)
        assert game.winning == {coalition_from_index(r, n) for r in range(1 << n) if levels[r]}


class TestLoopRoutes:
    """Tables that took an entry loop before every table shared one scan:
    levels beyond 255, and TU numerators."""

    def test_k_beyond_256(self):
        game = make_table_game(2, 3, 300, (0, 1, 299, 257, 257, 299, 257, 258, 299))
        mcv = minimal_critical_vectors(game)
        assert mcv == minimal_critical_vectors_oracle(game)
        assert mcv.as_dict() == {(0, 1): 1, (0, 2): 299, (1, 0): 257, (2, 1): 258}

    def test_tu_numerators(self):
        game = make_tu_game(2, {(): 0, (1,): "1/2", (2,): 300, (1, 2): 300})
        assert game.numerators == (0, 600, 1, 600)
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


def _down_max_ranks(n: int, table, width: int) -> list[int]:
    """The down-max of ``table`` on lanes of ``width`` bytes, unpacked: each
    coalition's rank of the largest entry at or below it."""
    ranks = {v: r for r, v in enumerate(sorted(set(table)))}
    bits, size = 8 * width, len(table)
    packed = int.from_bytes(b"".join(ranks[v].to_bytes(width, "little") for v in table), "little")
    guard = int.from_bytes(((1 << (bits - 1)).to_bytes(width, "little")) * size, "little")
    down = _down_max(packed, guard, bits, _axis_lanes(n, 2, size, width))
    lanes = down.to_bytes(size * width, "little")
    return [int.from_bytes(lanes[r * width : (r + 1) * width], "little") for r in range(size)]


def _additive(n: int, rng) -> list[int]:
    """A monotone 0/1 table with 2^n distinct entries: sums of distinct
    powers of two per player, shuffled among the players."""
    weights = [1 << p for p in range(n)]
    rng.shuffle(weights)
    return [sum(w for p, w in enumerate(weights) if r >> (n - 1 - p) & 1) for r in range(1 << n)]


class TestGainingLanes:
    """``_predecessor_ranks(view, gaining=True)`` against the literal
    scan, on any table: monotone or not, negative entries, every lane width."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 7),
        kind=st.sampled_from(("arbitrary", "monotone", "origin_above_min")),
        k=st.integers(2, 9),
        spread=st.sampled_from(sorted(SPREADS)),
        seed=st.integers(0, 10 ** 6),
    )
    def test_matches_literal_scan(self, n, kind, k, spread, seed):
        table = [SPREADS[spread](v) for v in _table(n, 2, k, kind, random.Random(seed))]
        assert _gaining_ranks(n, table) == _real_gaining(n, table)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 7), seed=st.integers(0, 10 ** 6), monotone=st.booleans())
    def test_tu_games_negative_worths(self, n, seed, monotone):
        # random_tu draws worths in -1..2, so most non-monotone games have negatives
        game = (random_monotone_tu if monotone else random_tu)(n, random.Random(seed))
        table = game.numerators
        assert _gaining_ranks(n, table) == _real_gaining(n, table)

    @settings(max_examples=30, deadline=None)
    @given(kind=kinds, spread=st.sampled_from(sorted(SPREADS)), seed=st.integers(0, 10 ** 6))
    def test_two_byte_lanes(self, kind, spread, seed):
        # 256 distinct entries: ranks beyond 127 need 2-byte lanes
        table = [SPREADS[spread](v) for v in _distinct_table(8, 2, kind, random.Random(seed))]
        assert 128 < len(set(table)) <= 2 ** 15
        assert _gaining_ranks(8, table) == _real_gaining(8, table)

    @pytest.mark.parametrize("kind", ("arbitrary", "monotone"))
    def test_four_byte_lanes(self, kind):
        # 2^16 distinct entries, more ranks than a 2-byte lane's 2^15 keys; on
        # the monotone table every coalition gains, the literal scan's worst case
        rng = random.Random(kind)
        table = _additive(16, rng) if kind == "monotone" else _distinct_table(16, 2, kind, rng)
        assert len(set(table)) == 2 ** 16
        found = _gaining_ranks(16, table)
        assert found == _real_gaining(16, table)
        assert (len(found) == (1 << 16) - 1) == (kind == "monotone")

    @pytest.mark.parametrize("table", ([0], [5], [-3], [0, 1], [0, 0], [0, -1], [3, -1], [-2, 7]))
    def test_no_players_and_one(self, table):
        n = len(table).bit_length() - 1
        assert _gaining_ranks(n, table) == _real_gaining(n, table)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 6),
        seed=st.integers(0, 10 ** 6),
        monotone=st.booleans(),
        width=st.sampled_from((1, 2, 4)),
    )
    def test_down_max_is_the_table_exactly_when_monotone(self, n, seed, monotone, width):
        game = (random_monotone_tu if monotone else random_tu)(n, random.Random(seed))
        table = game.numerators
        ranks = sorted(set(table))
        keys = [ranks.index(v) for v in table]
        down = _down_max_ranks(n, table, width)
        assert down == _axis_max(list(keys), n, 2)  # the running-maximum reference
        assert (down == keys) == game.monotone


class TestDescents:
    """``games._descents``, one guard-bit compare per axis on the lane view,
    against the entry-by-entry reference ``_entry_descents``, on any integer
    table: monotone or not, the origin above the minimum, negative entries
    and entries beyond 2^64, and every lane width."""

    @settings(max_examples=200, deadline=None)
    @given(
        shape=shapes,
        kind=kinds,
        spread=st.sampled_from(sorted(SPREADS)),
        seed=st.integers(0, 10 ** 6),
    )
    def test_matches_entry_descents(self, shape, kind, spread, seed):
        n, j, k = shape
        table = [SPREADS[spread](v) for v in _table(n, j, k, kind, random.Random(seed))]
        found = _lane_descents(n, j, table)
        assert found == _entry_descents(n, j, table)
        if kind == "monotone":
            assert found == []

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(((8, 2), (5, 3), (4, 4))),
        kind=kinds,
        spread=st.sampled_from(sorted(SPREADS)),
        seed=st.integers(0, 10 ** 6),
    )
    def test_two_byte_lanes(self, shape, kind, spread, seed):
        n, j = shape
        table = [SPREADS[spread](v) for v in _distinct_table(n, j, kind, random.Random(seed))]
        assert _rank_lanes(n, j, table)[1] == 2
        assert _lane_descents(n, j, table) == _entry_descents(n, j, table)

    @pytest.mark.parametrize("kind", ("arbitrary", "monotone"))
    def test_four_byte_lanes(self, kind):
        table = _distinct_table(16, 2, kind, random.Random(kind))
        assert _rank_lanes(16, 2, table)[1] == 4
        found = _lane_descents(16, 2, table)
        assert found == _entry_descents(16, 2, table)
        assert (found == []) == (kind == "monotone")

    @pytest.mark.parametrize(
        "table",
        ([0], [5], [-3], [2 ** 70], [0, 1], [1, 0], [0, 0], [3, -1], [-2, 7], [2 ** 70, 0]),
    )
    def test_no_players_and_one(self, table):
        n = len(table).bit_length() - 1
        assert _lane_descents(n, 2, table) == _entry_descents(n, 2, table)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 7), seed=st.integers(0, 10 ** 6), monotone=st.booleans())
    def test_tu_numerators(self, n, seed, monotone):
        game = (random_monotone_tu if monotone else random_tu)(n, random.Random(seed))
        table = game.numerators
        assert _lane_descents(n, 2, table) == _entry_descents(n, 2, table)
        assert game.monotone == (not _entry_descents(n, 2, table))

    def test_hole_witnesses_by_rank_then_larger_stride(self):
        # {2}, {1, 3} and {1, 2} win, every other coalition loses: the hole at
        # {1, 3} is on the second axis and the one at {2} on the third, but
        # {2} has the lower rank and comes first
        levels = (0, 0, 1, 0, 0, 1, 1, 0)
        assert _lane_descents(3, 2, levels) == [(5, 2), (2, 1), (6, 1)]
        with pytest.raises(MonotonicityViolation) as info:
            SimpleGame(3, levels)
        assert str(info.value) == "winning set is not closed under supersets (3 holes)"
        assert list(info.value.witnesses) == [
            ({2}, {2, 3}),
            ({1, 3}, {1, 2, 3}),
            ({1, 2}, {1, 2, 3}),
        ]


class TestNullPlayers:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(((4, 4), (5, 3), (8, 2))),
        seed=st.integers(0, 10 ** 6),
        data=st.data(),
    )
    def test_two_byte_lanes(self, shape, seed, data):
        # a monotone table with more than 128 distinct entries, and an unused
        # coordinate grafted on at position `dead` when dead > 0
        m, j = shape
        dead = data.draw(st.integers(0, m + 1))
        n = m + (dead > 0)
        flat = _distinct_table(m, j, "monotone", random.Random(seed))
        levels = [
            flat[profile_index(x[: dead - 1] + x[dead:] if dead else x, j)]
            for x in all_profiles(n, j)
        ]
        game = make_table_game(n, j, max(levels) + 1, levels)
        assert _rank_lanes(n, j, levels)[1] == 2
        literal = [
            p + 1
            for p in range(n)
            if all(
                levels[rank] == levels[rank - j ** (n - 1 - p)]
                for rank, x in enumerate(all_profiles(n, j))
                if x[p]
            )
        ]
        assert _null_players(game) == literal == ([dead] if dead else [])


class TestOnePackPerGame:
    """The lane view is packed once per game and kept on it: the
    constructor check, the listings, ``TUGame.monotone`` and the null
    players all read that one view. A simple game built from g generators,
    g² ≤ 2^(n+1), lists its minimal ones and packs none; with more
    generators it packs its view once, as the other games do."""

    @pytest.fixture
    def packs(self, monkeypatch):
        tables, pack = [], games._rank_lanes

        def counting(n, j, table):
            tables.append(table)
            return pack(n, j, table)

        monkeypatch.setattr(games, "_rank_lanes", counting)
        return tables

    def test_null_player_of_each_player(self, packs):
        game = random_monotone_jk(7, 3, 3, random.Random(2))  # 2,187 entries
        flags = [is_null_player(game, i) for i in game.players()]
        minimal_critical_vectors(game)
        assert flags == [i in _null_players(game) for i in game.players()]
        assert packs == [game.levels]
        bare = games._trusted(JKGame, game.n, game.j, game.k, game.levels)  # no view
        assert "_lanes" in game.__dict__ and "_lanes" not in bare.__dict__
        assert (game, hash(game), repr(game)) == (bare, hash(bare), repr(bare))

    @pytest.mark.parametrize("fmt", ("table", "machine"))
    @pytest.mark.parametrize("kind", ("tu", "jk", "simple", "simple-many"))
    def test_one_request(self, packs, kind, fmt, tmp_path, capsys):
        game = {
            "tu": random_monotone_tu(5, random.Random(3)),
            "jk": random_monotone_jk(4, 3, 3, random.Random(3)),
            "simple": simple_game_from_generators(4, [{1, 2}, {3, 4}]),
            # 6 generators on 4 players: 6² > 2^5, so the listing scans lanes
            "simple-many": simple_game_from_generators(4, [{1, 2}, {3, 4}, {1, 3}, {2, 4}, {1, 4}, {2, 3}]),
        }[kind]
        path = tmp_path / "g.json"
        dump_game(game, path)
        packs.clear()
        assert cli.main(["analyze", "--format", fmt, "--oracle", str(path)]) == 0
        capsys.readouterr()
        # the oracle reads the simple game's table through the (2,2) embedding, unpacked
        assert len(packs) == (0 if kind == "simple" else 1)


class TestSubsetSums:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_naive_sum_over_subsets(self, n):
        rng = random.Random(n)
        table = [rng.randrange(-50, 2 ** 70) for _ in range(1 << n)]
        naive = [
            sum(table[sub] for sub in range(1 << n) if sub & rank == sub) for rank in range(1 << n)
        ]
        assert _subset_sums(table, n) == naive
