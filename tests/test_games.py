import random
import sys
import traceback
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    CapExceeded,
    JKGame,
    SimpleGame,
    TUGame,
    ValidationError,
    average_game,
    embed_2k_as_tu,
    embed_simple,
    evaluate,
    extract_simple,
    make_simple_game,
    make_table_game,
    make_tu_game,
    make_weighted_game,
    oplus,
    permute,
    remove_player,
    simple_game_from_generators,
    single_mcv_game,
    subgame,
    zero_game,
)
from pgindex.errors import (
    DenominatorTooLarge,
    IncompleteTable,
    IncompleteWorthTable,
    LevelOutOfRange,
    MonotonicityViolation,
    NegativeWeightNonMonotone,
    NonIncreasingThresholds,
    NonZeroAtOrigin,
    NonZeroEmptyCoalition,
    NotBinaryGame,
    NotTwoLevelInput,
    OutOfRangeOutput,
    ProfileDimensionMismatch,
    UnknownPlayer,
)
from pgindex import games
from pgindex.games import (
    all_coalitions,
    all_profiles,
    coalition_index,
    coalition_of_profile,
    decrement,
    index_profile,
    profile_index,
)

from gamegen import random_monotone_jk, random_tu


class TestProfileArithmetic:
    def test_index_roundtrip(self):
        for n, j in ((1, 2), (2, 3), (3, 3), (4, 2)):
            for idx, x in enumerate(all_profiles(n, j)):
                assert profile_index(x, j) == idx
                assert index_profile(idx, n, j) == x

    def test_first_player_is_most_significant(self):
        assert profile_index((1, 0, 0), 3) == 9
        assert profile_index((0, 0, 1), 3) == 1

    def test_decrement(self):
        assert decrement((2, 1, 0), 1) == (1, 1, 0)
        assert decrement((2, 1, 0), 2) == (2, 0, 0)
        with pytest.raises(LevelOutOfRange):
            decrement((0, 1), 1)

    def test_coalition_profile_correspondence(self):
        assert coalition_of_profile((1, 0, 1)) == frozenset({1, 3})
        assert coalition_of_profile((2, 0, 1)) == frozenset({1, 3})
        # coalition rank equals the rank of its 0/1 profile at j=2
        for n in (1, 2, 3, 4):
            for x in all_profiles(n, 2):
                assert coalition_index(coalition_of_profile(x), n) == profile_index(x, 2)
            ranks = [coalition_index(S, n) for S in all_coalitions(n)]
            assert ranks == list(range(2**n))


class TestTableGames:
    def test_mapping_and_sequence_agree(self):
        table = {x: min(sum(x), 1) for x in all_profiles(2, 2)}
        flat = [min(sum(x), 1) for x in all_profiles(2, 2)]
        assert make_table_game(2, 2, 2, table) == make_table_game(2, 2, 2, flat)

    def test_missing_entries_reported(self):
        with pytest.raises(IncompleteTable) as info:
            make_table_game(2, 2, 2, {(0, 0): 0, (1, 1): 1})
        assert "2" in str(info.value)

    def test_keys_that_are_not_profiles_refused(self):
        with pytest.raises(IncompleteTable) as info:
            make_table_game(1, 2, 2, {(0,): 0, (1,): 1, (7,): 1, "junk": 3})
        assert str(info.value) == "2 keys are not profiles"

    def test_nonzero_origin_rejected(self):
        with pytest.raises(NonZeroAtOrigin):
            make_table_game(1, 2, 2, [1, 1])

    def test_jk_game_table_and_labels_lengths(self):
        with pytest.raises(ValidationError, match="^table has 8 entries, expected 9$"):
            JKGame(2, 3, 2, (0,) * 8)
        with pytest.raises(ValidationError, match="^one label per player required$"):
            JKGame(2, 2, 2, (0, 0, 0, 1), labels=(1, 2, 3))
        assert JKGame(2, 2, 2, (0, 0, 0, 1), labels=(7, 9)).labels == (7, 9)

    @pytest.mark.parametrize(
        "j, k, message",
        [
            (1, 2, "need at least 2 input levels, got j=1"),
            (2, 1, "need at least 2 output levels, got k=1"),
        ],
    )
    def test_fewer_than_two_levels(self, j, k, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_table_game(1, j, k, [0] * j)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            JKGame(1, j, k, [0] * j)

    def test_out_of_range_levels_collected(self):
        with pytest.raises(OutOfRangeOutput) as info:
            make_table_game(1, 3, 2, [0, 2, 5])
        assert len(info.value.witnesses) == 2

    def test_bool_levels_rejected(self):
        with pytest.raises(OutOfRangeOutput):
            make_table_game(1, 2, 2, [0, True])

    def test_monotonicity_witnesses(self):
        with pytest.raises(MonotonicityViolation) as info:
            make_table_game(2, 2, 2, [0, 1, 0, 0])
        assert ((0, 1), (1, 1)) in info.value.witnesses

    def test_cap(self):
        with pytest.raises(CapExceeded):
            make_table_game(30, 2, 2, [], cap=2**10)

    def test_huge_player_count_refused_before_sizing(self):
        # j ** n for this n would never finish; the guard compares n first
        huge = 10**12
        with pytest.raises(CapExceeded, match="beyond the cap"):
            make_table_game(huge, 3, 2, [])
        with pytest.raises(CapExceeded, match="beyond the cap"):
            zero_game(huge, 2, 2)
        with pytest.raises(CapExceeded, match="beyond the cap"):
            simple_game_from_generators(huge, [])
        with pytest.raises(CapExceeded, match="beyond the cap"):
            make_tu_game(huge, {})

    def test_guard_boundary(self):
        # n just below cap.bit_length() still reports the table size
        with pytest.raises(CapExceeded, match="table would need 27 entries"):
            make_table_game(3, 3, 2, [], cap=15)
        with pytest.raises(CapExceeded, match="beyond the cap"):
            make_table_game(4, 2, 2, [], cap=15)
        assert make_table_game(4, 2, 2, [0] * 16, cap=16).levels == (0,) * 16

    def test_evaluate_checks_profile(self):
        game = make_table_game(2, 2, 2, [0, 0, 0, 1])
        assert evaluate(game, (1, 1)) == 1
        with pytest.raises(ProfileDimensionMismatch):
            evaluate(game, (1,))
        with pytest.raises(LevelOutOfRange):
            evaluate(game, (1, 2))
        with pytest.raises(LevelOutOfRange):
            evaluate(game, (1, True))


class TestWeightedGames:
    def test_example_levels(self, example33):
        # weighted sum 3a+2b+c against thresholds 7 and 12
        assert evaluate(example33, (2, 2, 2)) == 2
        assert evaluate(example33, (2, 2, 1)) == 1
        assert evaluate(example33, (1, 1, 1)) == 0
        assert evaluate(example33, (1, 2, 0)) == 1

    def test_provenance_kept(self, example33):
        assert example33.provenance.weights == (3, 2, 1)
        assert example33.provenance.thresholds == (7, 12)

    def test_rational_weights(self):
        game = make_weighted_game((Fraction(1, 2), "1/2"), ("1/2",), 2, 2)
        assert evaluate(game, (1, 0)) == 1
        assert evaluate(game, (0, 1)) == 1

    def test_threshold_order_enforced(self):
        with pytest.raises(NonIncreasingThresholds):
            make_weighted_game((1, 1), (5, 5), 2, 3)

    def test_negative_weight_diagnosis(self):
        # (1,0) reaches the threshold but adding player 2 drops below it
        with pytest.raises(NegativeWeightNonMonotone):
            make_weighted_game((2, -1), (2,), 2, 2)

    @pytest.mark.parametrize("thresholds", [(), (1,), (1, 2, 3)])
    def test_weighted_threshold_count(self, thresholds):
        message = f"^need k-1 = 2 thresholds, got {len(thresholds)}$"
        with pytest.raises(ValidationError, match=message):
            make_weighted_game((1, 1), thresholds, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.fractions(-3, 5, max_denominator=6), min_size=1, max_size=4
        ),
        thresholds=st.sets(
            st.fractions(Fraction(1, 12), 12, max_denominator=12), min_size=1, max_size=3
        ),
        j=st.integers(2, 3),
    )
    def test_integer_table_matches_fraction_sums(self, weights, thresholds, j):
        t = sorted(thresholds)
        n, k = len(weights), len(t) + 1
        naive = [
            bisect_right(t, sum(w * a for w, a in zip(weights, x)))
            for x in all_profiles(n, j)
        ]
        try:
            make_table_game(n, j, k, naive)
        except MonotonicityViolation:
            with pytest.raises(NegativeWeightNonMonotone):
                make_weighted_game(weights, t, j, k)
            return
        assert list(make_weighted_game(weights, t, j, k).levels) == naive

    def test_threshold_at_zero_reached_by_origin(self):
        # non-negative weights skip the monotonicity sweep, not the origin check
        with pytest.raises(NonZeroAtOrigin):
            make_weighted_game((1, 1), (0,), 2, 2)

    def test_float_weight_rejected(self):
        with pytest.raises(ValidationError):
            make_weighted_game((0.5, 1), (1,), 2, 2)

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "1E+1_000_000", "2.5e4301"])
    def test_huge_decimal_exponent_refused(self, text):
        # Fraction would build ten to the exponent first: 12 s for 1e10000000
        with pytest.raises(ValidationError, match="decimal exponent beyond"):
            make_weighted_game((text, 1), (1,), 2, 2)

    def test_decimal_exponent_within_limit_loads(self):
        game = make_weighted_game(("1e4299", "1e-4299"), ("1.5e300",), 2, 2)
        assert game.provenance.thresholds[0] == 15 * 10 ** 299
        assert game.levels == (0, 0, 1, 1)
        # an exponent within the limit, but 4,301 digits, which no report could print
        with pytest.raises(ValidationError, match="^weight '1e4300' has more than 4300 digits$"):
            make_weighted_game(("1e4300", "1e-4300"), ("1.5e300",), 2, 2)


class TestSimpleGames:
    def test_strict_constructor_requires_closure(self):
        with pytest.raises(MonotonicityViolation):
            make_simple_game(2, [{1}])

    def test_empty_coalition_cannot_win(self):
        with pytest.raises(NonZeroAtOrigin):
            make_simple_game(2, [set(), {1}, {1, 2}])

    def test_generators_take_upward_closure(self):
        game = simple_game_from_generators(3, [{1}, {2, 3}])
        assert frozenset({1, 3}) in game.winning
        assert frozenset({2}) not in game.winning

    def test_unhashable_member_is_unknown_player(self):
        with pytest.raises(UnknownPlayer, match=r"^player \[1\] is not one of 1\.\.2$"):
            make_simple_game(2, [[[1]]])
        with pytest.raises(UnknownPlayer, match=r"^player \{'a': 1\} is not one of 1\.\.2$"):
            simple_game_from_generators(2, [[{"a": 1}]])

    def test_trivial_flag(self):
        assert simple_game_from_generators(2, []).trivial
        assert not simple_game_from_generators(2, [{1}]).trivial

    def test_simple_game_wins(self):
        game = simple_game_from_generators(3, [{1}, {2, 3}])
        assert game.wins({1, 2}) and game.wins([3, 2])
        assert not game.wins({2}) and not game.wins(())
        with pytest.raises(UnknownPlayer, match=r"^player 4 is not one of 1\.\.3$"):
            game.wins({4})

    def test_hand_built_game_with_a_hole_refused(self):
        # {1} and {1,2,3} win, {1,2} and {1,3} lose
        with pytest.raises(MonotonicityViolation) as made:
            make_simple_game(3, [{1}, {1, 2, 3}])
        with pytest.raises(MonotonicityViolation) as built:
            SimpleGame(3, (0, 0, 0, 0, 1, 0, 0, 1))
        assert str(built.value) == str(made.value)
        assert built.value.witnesses == made.value.witnesses
        assert set(built.value.witnesses) == {
            (frozenset({1}), frozenset({1, 2})),
            (frozenset({1}), frozenset({1, 3})),
        }

    def test_hand_built_game_with_winning_empty_coalition_refused(self):
        # entries and the origin are checked as on the (2,2) table, in its words
        with pytest.raises(NonZeroAtOrigin, match="^the all-zero profile maps to 1") as info:
            SimpleGame(2, (1, 1, 1, 1))
        assert info.value.witnesses == (((0, 0), 1),)

    @pytest.mark.parametrize(
        "levels, bad",
        [
            ((0, 0, 2, 2), (((1, 0), 2), ((1, 1), 2))),
            ((0, 1, 1, True), (((1, 1), True),)),
            ((0, 0, 0, 1.0), (((1, 1), 1.0),)),
        ],
    )
    def test_hand_built_game_entries_are_zero_or_one(self, levels, bad):
        with pytest.raises(OutOfRangeOutput, match=f"^{len(bad)} table entries outside 0..1$") as info:
            SimpleGame(2, levels)
        assert info.value.witnesses == bad


def _rebuilt(game):
    """The game again, through its checking constructor."""
    if isinstance(game, SimpleGame):
        return SimpleGame(game.n, game.levels)
    return JKGame(game.n, game.j, game.k, game.levels)


class TestTrustedRoutes:
    """Games derived from valid ones skip the table check; the checking
    constructor accepts every one of them unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from(((1, 4, 3), (2, 2, 2), (2, 3, 3), (3, 2, 4), (3, 3, 2))),
        seed=st.integers(0, 10**6),
    )
    def test_every_route_passes_the_check(self, shape, seed):
        rng = random.Random(seed)
        n, j, k = shape
        v, w = random_monotone_jk(n, j, k, rng), random_monotone_jk(n, j, k, rng)
        players = list(v.players())
        generators = [rng.sample(players, rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
        simple = simple_game_from_generators(n, generators)
        x = [rng.randrange(j) for _ in players]
        x[rng.randrange(n)] = rng.randrange(1, j)  # x != 0
        weights = [rng.choice((0, 1, 2, Fraction(1, 2))) for _ in players]
        thresholds = sorted(rng.sample(range(1, 8), k - 1))
        routes = [
            zero_game(n, j, k),
            embed_simple(simple),
            extract_simple(embed_simple(simple)),
            simple,
            subgame(v, [i for i in players if rng.random() < 0.5]),
            remove_player(v, rng.choice(players)),
            permute(v, rng.sample(players, n)),
            oplus(v, w),
            single_mcv_game(x, rng.randint(1, k - 1), j, k),
            make_weighted_game(weights, thresholds, j, k),
        ]
        for game in routes:
            assert _rebuilt(game) == game


class TestTUGames:
    def test_monotone_flag(self):
        worths = {S: Fraction(len(S)) for S in all_coalitions(2)}
        assert make_tu_game(2, worths).monotone
        worths[frozenset({1, 2})] = Fraction(1, 2)
        assert not make_tu_game(2, worths).monotone

    def test_empty_coalition_zero(self):
        with pytest.raises(NonZeroEmptyCoalition):
            make_tu_game(1, {frozenset(): 1, frozenset({1}): 1})

    def test_hand_built_game_checks_empty_coalition(self):
        worths = (Fraction(5), Fraction(1), Fraction(1), Fraction(0))
        with pytest.raises(NonZeroEmptyCoalition) as made:
            make_tu_game(2, dict(zip(all_coalitions(2), worths)))
        with pytest.raises(NonZeroEmptyCoalition) as built:
            TUGame(2, worths)
        assert str(built.value) == str(made.value) == "empty coalition has worth 5, must be 0"

    def test_monotone_flag_cannot_be_passed(self):
        with pytest.raises(TypeError):
            TUGame(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(0)), True)

    def test_common_denominator_and_numerators(self):
        game = make_tu_game(2, {(): 0, (1,): "1/4", (2,): "-5/6", (1, 2): 3})
        assert game.denominator == 12
        assert game.numerators == (0, -10, 3, 36)

    def test_common_denominator_bounded_by_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        widest = make_tu_game(1, {(): 0, (1,): Fraction(1, 10 ** limit - 1)})
        assert len(str(widest.denominator)) == limit
        # two coprime denominators within the limit, whose lcm is beyond it
        half = 10 ** (limit // 2 + 50)
        worths = {(): 0, (1,): Fraction(1, half + 1), (2,): Fraction(1, half + 3), (1, 2): 1}
        with pytest.raises(DenominatorTooLarge) as info:
            make_tu_game(2, worths)
        assert str(info.value) == f"the worths' common denominator exceeds {limit} digits"

    def test_common_denominator_bounded_by_table_bits(self, monkeypatch):
        monkeypatch.setattr(games, "TABLE_BITS", 64)  # 16 bits on each of 4 coalitions
        worths = (0, 1, Fraction(1, 2), 2)
        assert make_tu_game(2, dict(zip(all_coalitions(2), worths[:3] + (Fraction(1, 2 ** 15),))))
        with pytest.raises(DenominatorTooLarge) as info:
            make_tu_game(2, dict(zip(all_coalitions(2), worths[:3] + (Fraction(1, 2 ** 16),))))
        assert str(info.value) == "the worths' common denominator exceeds 16 bits for 4 coalitions"

    def test_missing_coalitions_counted(self):
        with pytest.raises(IncompleteWorthTable) as info:
            make_tu_game(2, {frozenset(): 0})
        assert "3" in str(info.value)

    def test_unknown_member_rejected(self):
        with pytest.raises(UnknownPlayer):
            make_tu_game(2, {frozenset({3}): 1})

    @pytest.mark.parametrize(
        "worth, message",
        [
            ({(): 0, (1,): 1, (2,): 1, (1, 2): 3, (2, 1): 5},
             "worth keys (1, 2) and (2, 1) name the same coalition"),
            # the repeat is refused before its worth is read
            ({(1,): 1, (1, 1): "x"}, "worth keys (1,) and (1, 1) name the same coalition"),
            ({frozenset(): 0, (): 0}, "worth keys frozenset() and () name the same coalition"),
        ],
        ids=["reordered", "before-the-worth", "empty"],
    )
    def test_repeated_coalition_rejected(self, worth, message):
        # as the file loader refuses it: no worth silently replaces another
        with pytest.raises(ValidationError) as info:
            make_tu_game(2, worth)
        assert type(info.value) is ValidationError and str(info.value) == message

    def test_worth_collapses_repeated_members(self):
        worths = {S: Fraction(len(S) * 10 + min(S, default=0)) for S in all_coalitions(3)}
        tu = make_tu_game(3, worths)
        assert tu.worth([2, 2]) == tu.worth({2}) == 12
        assert make_tu_game(2, {S: len(S) for S in all_coalitions(2)}).worth([1, 1]) == 1

    @pytest.mark.parametrize("member", [0, 3, -1, True, "1", [1]])
    def test_worth_rejects_outsiders(self, member):
        tu = make_tu_game(2, {S: len(S) for S in all_coalitions(2)})
        with pytest.raises(UnknownPlayer):
            tu.worth([1, member])


class TestStoredTables:
    """A game keeps a tuple of the table it was given and checks that tuple,
    so a change to the caller's list afterwards changes nothing."""

    def test_caller_lists_mutated_after_construction(self):
        levels, winning, worths, labels = [0, 1], [0, 1], [Fraction(0), Fraction(1)], [7]
        jk = JKGame(1, 2, 2, levels, labels=labels)
        simple = SimpleGame(1, winning)
        tu = TUGame(1, worths, labels=labels)
        levels[1], winning[1], worths[1], labels[0] = 5, 0, Fraction(-3), 9
        assert repr(jk) == "JKGame(n=1, j=2, k=2, levels=(0, 1))"
        assert repr(simple) == "SimpleGame(n=1, levels=(0, 1))"
        assert repr(tu) == "TUGame(n=1, worths=(Fraction(0, 1), Fraction(1, 1)))"
        assert jk.labels == tu.labels == (7,)
        assert hash(jk) == hash(JKGame(1, 2, 2, (0, 1)))
        assert hash(simple) == hash(SimpleGame(1, (0, 1)))
        assert hash(tu) == hash(TUGame(1, (Fraction(0), Fraction(1))))

    def test_the_stored_tuple_is_checked(self):
        # an iterator is used up by the copy, so only the copy can be checked
        assert JKGame(1, 3, 2, iter([0, 1, 1])).levels == (0, 1, 1)
        with pytest.raises(MonotonicityViolation):
            JKGame(1, 3, 2, iter([0, 1, 0]))
        assert SimpleGame(1, iter([0, 1])).levels == (0, 1)
        with pytest.raises(MonotonicityViolation):
            SimpleGame(2, iter([0, 1, 1, 0]))
        tu = TUGame(1, iter([Fraction(0), Fraction(1, 2)]), labels=iter([7]))
        assert (tu.numerators, tu.denominator, tu.labels) == ((0, 1), 2, (7,))
        with pytest.raises(NonZeroEmptyCoalition):
            TUGame(1, iter([Fraction(1), Fraction(1)]))


class TestTUIntegerTables:
    """TU games derived from others are built from integers, with the table
    ``make_tu_game`` gives on their worths; none builds its ``Fraction``
    worths before they are read."""

    @staticmethod
    def _assert_canonical(tu):
        assert "worths" not in tu.__dict__
        again = make_tu_game(tu.n, dict(zip(all_coalitions(tu.n), tu.worths)))
        assert (tu.denominator, tu.numerators) == (again.denominator, again.numerators)
        assert tu == again and type(tu.numerators) is tuple

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 4), denominator=st.sampled_from((1, 2, 6, 35)), seed=st.integers(0, 10**6))
    def test_derived_games_match_make_tu_game(self, n, denominator, seed):
        rng = random.Random(seed)
        tu = random_tu(n, rng, denominator)
        self._assert_canonical(subgame(tu, [i for i in range(1, n + 1) if rng.random() < 0.5]))
        jk = random_monotone_jk(n, 2, rng.randrange(2, 5), rng)
        self._assert_canonical(embed_2k_as_tu(jk))
        self._assert_canonical(average_game(random_monotone_jk(n, rng.randrange(2, 4), 3, rng)).tu)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 4),
        shared=st.integers(1, 10**40),
        d=st.integers(1, 10**40),
        data=st.data(),
    )
    def test_one_gcd_reduces_every_worth(self, n, shared, d, data):
        # a factor shared by d and every numerator, negative and 40-digit numerators
        rest = st.lists(st.integers(-(10**40), 10**40), min_size=2**n - 1, max_size=2**n - 1)
        nums = [0, *(shared * x for x in data.draw(rest))]
        tu = games._lowest_terms(n, nums, shared * d, tuple(range(1, n + 1)))
        self._assert_canonical(tu)
        assert tu == TUGame(n, [Fraction(x, shared * d) for x in nums])

    def test_subgame_denominator_shrinks_with_its_worths(self):
        tu = make_tu_game(2, {(): 0, (1,): "1/2", (2,): 1, (1, 2): "5/3"})
        assert (tu.denominator, tu.numerators) == (6, (0, 6, 3, 10))
        sub = subgame(tu, [2])
        assert (sub.denominator, sub.numerators) == (1, (0, 1))

    def test_average_denominator_is_reduced(self):
        # the gains 0, 4, 4, 8 over j^n (k - 1) = 8 are 0, 1/2, 1/2, 1
        tu = average_game(make_table_game(2, 2, 3, [0, 0, 0, 2])).tu
        assert (tu.denominator, tu.numerators) == (2, (0, 1, 1, 2))


class TestEmbeddings:
    def test_simple_roundtrip(self, quota_simple):
        embedded = embed_simple(quota_simple)
        assert embedded.j == embedded.k == 2
        assert extract_simple(embedded) == quota_simple

    def test_extract_needs_binary(self, example33):
        with pytest.raises(NotBinaryGame):
            extract_simple(example33)

    def test_tu_embedding_preserves_worths(self, quota_simple):
        tu = embed_2k_as_tu(embed_simple(quota_simple))
        assert isinstance(tu, TUGame)
        for S in all_coalitions(3):
            expected = Fraction(1) if S in quota_simple.winning else Fraction(0)
            assert tu.worth(S) == expected
        assert tu.monotone

    def test_tu_embedding_needs_two_levels(self, example33):
        with pytest.raises(NotTwoLevelInput):
            embed_2k_as_tu(example33)


class TestSubgames:
    def test_remove_player_example(self, example33):
        game = remove_player(example33, 3)
        assert game.n == 2
        assert evaluate(game, (2, 2)) == 1
        assert evaluate(game, (1, 2)) == 1
        assert evaluate(game, (1, 1)) == 0
        assert game.labels == (1, 2)
        assert game.provenance.weights == (3, 2)

    def test_subgame_freezes_outsiders_at_zero(self, example33):
        game = subgame(example33, {1})
        # alone, player 1 tops out at 6 < 7
        assert game.levels == (0, 0, 0)

    def test_unknown_player(self, example33):
        with pytest.raises(UnknownPlayer):
            remove_player(example33, 9)

    def test_no_subgame_of_a_simple_game(self):
        game = simple_game_from_generators(2, [{1}])
        with pytest.raises(TypeError, match="^no subgames for SimpleGame$"):
            subgame(game, {1})

    def test_tu_subgame(self):
        worths = {S: Fraction(len(S) ** 2) for S in all_coalitions(3)}
        tu = make_tu_game(3, worths)
        sub = subgame(tu, {1, 3})
        assert sub.labels == (1, 3)
        assert sub.worth(frozenset({1, 2})) == 4  # dense re-index: {1,3} -> {1,2}

    def test_random_jk_subgame_consistent(self, example33):
        rng = random.Random(7)
        for _ in range(25):
            game = random_monotone_jk(3, 3, 3, rng)
            sub = remove_player(game, 2)
            for x in sub.profiles():
                assert evaluate(sub, x) == evaluate(game, (x[0], 0, x[1]))


def test_zero_game_is_trivial():
    game = zero_game(2, 3, 3)
    assert game.trivial
    assert all(level == 0 for level in game.levels)


def test_labels_default_and_frozen():
    game = make_table_game(2, 2, 2, [0, 0, 0, 1])
    assert game.labels == (1, 2)
    with pytest.raises(AttributeError):
        game.n = 5


_HOLES = (
    (frozenset({2}), frozenset({2, 3})),
    (frozenset({1, 3}), frozenset({1, 2, 3})),
    (frozenset({1, 2}), frozenset({1, 2, 3})),
)
# (1,1) drops on both axes: by rank, then the larger stride first
_JK_PAIRS = (((0, 1), (0, 2)), ((1, 1), (2, 1)), ((1, 1), (1, 2)), ((2, 0), (2, 1)))
_JK_TABLE = (0, 1, 0, 1, 1, 0, 1, 0, 1)
_JK_WORDS = "profile pairs where raising a level lowers the output"
_NEGATIVE = "negative weights make the table non-monotone: "


@pytest.mark.parametrize(
    "build, error, message, witnesses",
    [
        (
            lambda: make_table_game(2, 3, 2, _JK_TABLE),
            MonotonicityViolation,
            f"4 {_JK_WORDS}",
            _JK_PAIRS,
        ),
        (lambda: JKGame(2, 3, 2, _JK_TABLE), MonotonicityViolation, f"4 {_JK_WORDS}", _JK_PAIRS),
        (
            lambda: make_simple_game(3, [{2}, {1, 3}, {1, 2}]),
            MonotonicityViolation,
            "winning set is not closed under supersets (3 holes)",
            _HOLES,
        ),
        (
            lambda: SimpleGame(3, (0, 0, 1, 0, 0, 1, 1, 0)),
            MonotonicityViolation,
            "winning set is not closed under supersets (3 holes)",
            _HOLES,
        ),
        (
            lambda: make_weighted_game((2, -1), (2,), 2, 2),
            NegativeWeightNonMonotone,
            f"{_NEGATIVE}1 {_JK_WORDS}",
            (((1, 0), (1, 1)),),
        ),
        (
            lambda: make_weighted_game((3, -2, 1), (1, 2), 3, 3),
            NegativeWeightNonMonotone,
            f"{_NEGATIVE}6 {_JK_WORDS}",
            (
                ((0, 0, 1), (0, 1, 1)),
                ((0, 0, 2), (0, 1, 2)),
                ((1, 0, 0), (1, 1, 0)),
                ((1, 1, 0), (1, 2, 0)),
                ((1, 1, 1), (1, 2, 1)),
                ((1, 1, 2), (1, 2, 2)),
            ),
        ),
    ],
    ids=["table", "jkgame", "simple", "simplegame", "weighted", "weighted3"],
)
def test_descent_refusal_wordings(build, error, message, witnesses):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.witnesses == witnesses
    # one exception in the traceback, with no other behind it
    shown = traceback.format_exception(info.value)
    assert not any("During handling" in line or "direct cause" in line for line in shown)

