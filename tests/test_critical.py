import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    JKGame,
    MCVSet,
    ValidationError,
    is_critical_for,
    make_table_game,
    make_tu_game,
    make_weighted_game,
    minimal_critical_below,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    minimal_critical_vectors_oracle,
    minimal_winning_coalitions,
    real_gaining_coalitions,
    zero_game,
)
from pgindex import critical
from pgindex.cli import main
from pgindex.critical import _predecessor_ranks
from pgindex.errors import (
    LevelOutOfRange,
    MonotonicityViolation,
    NonZeroAtOrigin,
    NotMinimalCritical,
    OracleCapExceeded,
    OutOfRangeOutput,
    ProfileDimensionMismatch,
    UnknownPlayer,
    ZeroLevelPlayer,
)
from pgindex.games import (
    _rank_lanes,
    all_coalitions,
    all_profiles,
    evaluate,
    index_profile,
    profile_index,
    subgame,
)
from pgindex.indices import pgv_tu

from conftest import DATA
from gamegen import random_monotone_jk, random_monotone_tu, random_tu


class TestMCVSet:
    def test_sorted_in_table_order(self, example33):
        mcv = minimal_critical_vectors(example33)
        assert list(mcv.vectors) == sorted(mcv.vectors)

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            MCVSet.from_pairs([((1, 0), 1), ((1, 0), 1)])

    def test_list_profiles_are_tuples(self):
        mcv = MCVSet.from_pairs([([1, 0], 1), ([0, 1], 1)])
        assert mcv.vectors == ((0, 1), (1, 0))
        assert mcv == MCVSet.from_pairs([((1, 0), 1), ((0, 1), 1)])
        assert [1, 0] in mcv and mcv.worth_of([0, 1]) == 1
        with pytest.raises(ValidationError):
            MCVSet.from_pairs([([1, 0], 1), ((1, 0), 1)])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError):
            MCVSet.from_pairs([((1, 0), 1), ((0, 1, 1), 1)])

    def test_comparable_pairs_need_increasing_worth(self):
        with pytest.raises(ValidationError):
            MCVSet.from_pairs([((1, 0), 1), ((1, 1), 1)])
        # strictly increasing along the order is fine
        MCVSet.from_pairs([((1, 0), 1), ((1, 1), 2)])

    def test_worth_lookup(self, example33):
        mcv = minimal_critical_vectors(example33)
        assert mcv.worth_of((2, 2, 2)) == 2
        assert (2, 1, 0) in mcv
        assert len(mcv) == 5

    def test_worth_of_a_vector_not_held(self, example33):
        mcv = minimal_critical_vectors(example33)
        with pytest.raises(KeyError) as info:
            mcv.worth_of((2, 2, 1))
        assert info.value.args == ((2, 2, 1),)


def test_coalition_set_membership():
    listing = critical._listing(make_tu_game(2, {(): 0, (1,): 1, (2,): 0, (1, 2): 1}))
    assert listing.coalitions == (frozenset({1}),)
    assert {1} in listing and (1,) in listing and [1] in listing
    assert {2} not in listing and {1, 2} not in listing and () not in listing


class TestMCVEnumeration:
    def test_example(self, example33):
        mcv = minimal_critical_vectors(example33)
        assert mcv.as_dict() == {
            (1, 1, 2): 1,
            (1, 2, 0): 1,
            (2, 0, 1): 1,
            (2, 1, 0): 1,
            (2, 2, 2): 2,
        }

    def test_zero_game_has_none(self):
        assert len(minimal_critical_vectors(zero_game(2, 3, 3))) == 0

    def test_agrees_with_oracle_randomly(self):
        rng = random.Random(11)
        for n, j, k in ((2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)):
            for _ in range(30):
                game = random_monotone_jk(n, j, k, rng)
                assert minimal_critical_vectors(game) == minimal_critical_vectors_oracle(game)

    def test_oracle_cap(self):
        big = zero_game(13, 3, 2)
        with pytest.raises(OracleCapExceeded):
            minimal_critical_vectors_oracle(big)

    def test_every_mcv_dominates_nothing_below(self, example33):
        mcv = minimal_critical_vectors(example33)
        for x, worth in mcv.pairs():
            assert evaluate(example33, x) == worth
            for y in example33.profiles():
                if y != x and all(a <= b for a, b in zip(y, x)):
                    assert evaluate(example33, y) < worth


def _raises(check) -> bool:
    try:
        check()
    except ValidationError:
        return True
    return False


@st.composite
def unvalidated_tables(draw):
    """Raw ``(n, j, k, levels)``, valid or not."""
    n = draw(st.integers(0, 3))
    j = draw(st.integers(2, 4))
    k = draw(st.integers(2, 4))
    levels = draw(st.lists(st.integers(-1, k - 1), min_size=j**n, max_size=j**n))
    return n, j, k, tuple(levels)


def _premise_fails(n, j, levels) -> bool:
    """Literally: the origin is nonzero or some one-step raise lowers the output."""
    if levels[0] != 0:
        return True
    return any(
        levels[profile_index(x[:p] + (x[p] + 1,) + x[p + 1 :], j)] < levels[profile_index(x, j)]
        for x in all_profiles(n, j)
        for p in range(n)
        if x[p] < j - 1
    )


class TestAntichainCheck:
    """A ``JKGame`` checks the premise (origin at 0, monotone) at
    construction; under it the scan is exact and an antichain per worth."""

    @settings(max_examples=300, deadline=None)
    @given(table=unvalidated_tables())
    def test_raises_exactly_when_premise_fails(self, table):
        n, j, k, levels = table
        raised = _raises(lambda: JKGame(n, j, k, levels))
        assert raised == _premise_fails(n, j, levels)
        # every table the pairwise check of the scan's output rejects is refused
        found = _predecessor_ranks(_rank_lanes(n, j, levels))
        if _raises(lambda: MCVSet.from_pairs((index_profile(r, n, j), levels[r]) for r in found)):
            assert raised
        if not raised:
            game = JKGame(n, j, k, levels)
            assert minimal_critical_vectors(game) == minimal_critical_vectors_oracle(game)

    def test_known_violator(self):
        with pytest.raises(MonotonicityViolation) as info:
            JKGame(1, 4, 3, (0, 2, 1, 2))
        assert info.value.witnesses == (((1,), (2,)),)
        with pytest.raises(ValidationError):
            MCVSet.from_pairs([((1,), 2), ((3,), 2)])

    def test_nonzero_origin(self):
        # the scan alone would list (2,) with worth 1; the constructor refuses
        # the table as make_table_game does
        levels = (2, 0, 1)
        found = _predecessor_ranks(_rank_lanes(1, 3, levels))
        assert [(index_profile(r, 1, 3), levels[r]) for r in found] == [((2,), 1)]
        with pytest.raises(NonZeroAtOrigin) as built:
            make_table_game(1, 3, 3, levels)
        with pytest.raises(NonZeroAtOrigin) as direct:
            JKGame(1, 3, 3, levels)
        assert str(direct.value) == str(built.value)
        assert direct.value.witnesses == built.value.witnesses == (((0,), 2),)

    @pytest.mark.parametrize(
        "n, levels",
        [(1, (0, 5)), (2, (0, 0.5, 1, 1)), (1, (0, True))],
    )
    def test_out_of_range_entries(self, n, levels):
        # the constructor refuses these tables as make_table_game does
        with pytest.raises(OutOfRangeOutput) as built:
            make_table_game(n, 2, 2, levels)
        with pytest.raises(OutOfRangeOutput) as direct:
            JKGame(n, 2, 2, levels)
        assert str(direct.value) == str(built.value)
        assert direct.value.witnesses == built.value.witnesses

    def test_many_vectors_match_oracle(self):
        # 141 vectors of weight sum 6 in a table of 729
        game = make_weighted_game([1] * 6, [6], 3, 2)
        mcv = minimal_critical_vectors(game)
        assert len(mcv) ** 2 > len(game.levels)
        assert mcv == minimal_critical_vectors_oracle(game)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(((1, 4, 3), (2, 3, 3), (3, 2, 4), (3, 3, 3), (4, 2, 2))),
        seed=st.integers(0, 10**6),
    )
    def test_from_pairs_accepts_enumerator_output(self, shape, seed):
        game = random_monotone_jk(*shape, random.Random(seed))
        mcv = minimal_critical_vectors(game)
        assert MCVSet.from_pairs(mcv.pairs()) == mcv


class TestSubgameLemma:
    """Players outside S frozen at 0: the MCVs of the subgame on S are the
    MCVs of the game supported inside S, with the same worths."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(((1, 4, 3), (2, 3, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 2))),
        seed=st.integers(0, 10**6),
    )
    def test_subgame_mcvs_are_the_mcvs_inside(self, shape, seed):
        game = random_monotone_jk(*shape, random.Random(seed))
        mcv = minimal_critical_vectors(game).as_dict()
        for S in all_coalitions(game.n):
            keep = sorted(S)
            lifted = {}
            for y, w in minimal_critical_vectors(subgame(game, keep)).pairs():
                x = [0] * game.n
                for i, level in zip(keep, y):
                    x[i - 1] = level
                lifted[tuple(x)] = w
            inside = {
                x: w for x, w in mcv.items() if all(i in S for i, level in enumerate(x, 1) if level)
            }
            assert lifted == inside


class TestOneEnumerationPerGame:
    def test_repeat_call_returns_cached_set(self, example33):
        first = minimal_critical_vectors(example33)
        assert minimal_critical_vectors(example33) is first

    def test_analyze_scans_table_once(self, monkeypatch, capsys):
        calls = []

        def counting(view, gaining=False):
            calls.append(view)
            return _predecessor_ranks(view, gaining)

        monkeypatch.setattr(critical, "_predecessor_ranks", counting)
        assert main(["analyze", str(DATA / "example33.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestMWC:
    def test_quota_example(self, quota_simple):
        assert minimal_winning_coalitions(quota_simple) == {
            frozenset({1}),
            frozenset({2, 3}),
        }

    def test_trivial_game(self):
        from pgindex import simple_game_from_generators

        assert minimal_winning_coalitions(simple_game_from_generators(3, [])) == frozenset()


class TestCoalitionFamilies:
    def test_non_monotone_example_splits_families(self):
        worths = {
            frozenset(): Fraction(0),
            frozenset({1}): Fraction(3),
            frozenset({2}): Fraction(0),
            frozenset({3}): Fraction(0),
            frozenset({1, 2}): Fraction(3, 2),
            frozenset({1, 3}): Fraction(3, 2),
            frozenset({2, 3}): Fraction(3, 2),
            frozenset({1, 2, 3}): Fraction(13, 5),
        }
        game = make_tu_game(3, worths)
        assert minimal_critical_coalitions(game) == {
            frozenset({1}),
            frozenset({2, 3}),
            frozenset({1, 2, 3}),
        }
        assert real_gaining_coalitions(game) == {
            frozenset({1}),
            frozenset({2, 3}),
        }

    def test_families_coincide_when_monotone(self):
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                game = random_monotone_tu(n, rng)
                assert minimal_critical_coalitions(game) == real_gaining_coalitions(game)

    def test_rgc_definition_literal(self):
        rng = random.Random(5)
        for _ in range(20):
            game = random_tu(3, rng)
            rgc = real_gaining_coalitions(game)
            for S in all_coalitions(3):
                if not S:
                    continue
                gaining = all(
                    game.worth(S) > game.worth(T)
                    for T in all_coalitions(3)
                    if T < S
                )
                assert (S in rgc) == gaining

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 6),
        seed=st.integers(0, 10**6),
        monotone=st.booleans(),
    )
    def test_rgc_listing_matches_literal_definition(self, n, seed, monotone):
        make = random_monotone_tu if monotone else random_tu
        game = make(n, random.Random(seed))
        literal = [
            S
            for S in all_coalitions(n)
            if S and all(game.worth(S) > game.worth(T) for T in all_coalitions(n) if T < S)
        ]
        listing = critical._listing(game, "rgc")
        assert listing.coalitions == tuple(literal)  # all_coalitions walks rank order
        assert listing.worths == tuple(game.worth(S) for S in literal)
        tally = [sum(game.worth(S) for S in literal if i in S) for i in game.players()]
        assert pgv_tu(game, "rgc").player_values == tuple(tally)

    def test_listing_cached_per_family(self):
        game = random_tu(4, random.Random(8))
        mcc, rgc = critical._listing(game), critical._listing(game, "rgc")
        assert mcc is not rgc
        assert critical._listing(game, "mcc") is mcc
        assert critical._listing(game, "rgc") is rgc
        assert pgv_tu(game, "rgc").listing is rgc


class TestCriticality:
    def test_is_critical_for(self, example33):
        assert is_critical_for(example33, (2, 2, 2), 1, 2)
        assert is_critical_for(example33, (2, 2, 2), 1, 1) is False
        assert is_critical_for(example33, (2, 1, 0), 2, 1)

    def test_rejects_non_mcv(self, example33):
        with pytest.raises(NotMinimalCritical):
            is_critical_for(example33, (2, 2, 1), 1, 1)

    def test_rejects_zero_coordinate(self, example33):
        with pytest.raises(ZeroLevelPlayer):
            is_critical_for(example33, (1, 2, 0), 3, 1)

    def test_rejects_unknown_player(self, example33):
        with pytest.raises(UnknownPlayer):
            is_critical_for(example33, (2, 2, 2), 4, 1)

    @pytest.mark.parametrize("tau", [0, 3, -1])
    def test_rejects_tau_outside_the_output_levels(self, example33, tau):
        with pytest.raises(LevelOutOfRange, match=rf"^tau={tau} outside 1\.\.2$"):
            is_critical_for(example33, (2, 2, 2), 1, tau)

    def test_minimal_critical_below(self, example33):
        x = minimal_critical_below(example33, (2, 2, 1))
        assert x in minimal_critical_vectors(example33)
        assert evaluate(example33, x) == evaluate(example33, (2, 2, 1))
        with pytest.raises(ValueError):
            minimal_critical_below(example33, (0, 0, 1))

    def test_minimal_critical_below_validates_the_profile(self, example33):
        for x in ((1, 3, 2), (5, 0, 0), (-1, 2, 2), (True, 2, 2)):
            with pytest.raises(LevelOutOfRange):
                minimal_critical_below(example33, x)
        with pytest.raises(ProfileDimensionMismatch):
            minimal_critical_below(example33, (2, 2))

    def test_minimal_critical_below_randomly(self):
        rng = random.Random(31)
        for _ in range(30):
            game = random_monotone_jk(3, 3, 3, rng)
            mcv = minimal_critical_vectors(game)
            for x in game.profiles():
                w = evaluate(game, x)
                if w == 0:
                    continue
                y = minimal_critical_below(game, x)
                assert y in mcv
                assert all(a <= b for a, b in zip(y, x))
                assert evaluate(game, y) == w
