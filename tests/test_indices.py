import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    TrivialGame,
    criticality_count,
    embed_2k_as_tu,
    embed_simple,
    evaluate,
    jk_potential,
    jk_potential_recursive,
    lambda_total,
    make_tu_game,
    minimal_critical_vectors_oracle,
    normalized_variant,
    pgi_normalized,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    remove_player,
    simple_game_from_generators,
    subgame,
    total_criticality,
    tu_potential,
    variant_value,
    zero_game,
)
from pgindex.errors import CapExceeded, RecursionCapExceeded, UnknownPlayer
from pgindex.games import decrement

from gamegen import random_monotone_jk, random_monotone_tu


class TestExampleValues:
    def test_potential_value(self, example33):
        report = public_good_value_jk(example33)
        assert report.player_values == (6, 5, 4)
        assert report.potential == 6
        assert report.lambda_total == 15

    def test_variant(self, example33):
        assert variant_value(example33).player_values == (5, 4, 3)

    def test_normalized_variant(self, example33):
        assert normalized_variant(example33).player_values == (
            Fraction(5, 12),
            Fraction(1, 3),
            Fraction(1, 4),
        )

    def test_potential_drop_after_removal(self, example33):
        # the player-3 value equals the potential drop when 3 leaves
        assert jk_potential(example33) - jk_potential(remove_player(example33, 3)) == 4


class TestPGI:
    def test_quota_example(self, quota_simple):
        assert pgi_raw(quota_simple).player_values == (1, 1, 1)
        assert pgi_normalized(quota_simple).player_values == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    def test_trivial_normalization_refused(self):
        game = simple_game_from_generators(2, [])
        assert pgi_raw(game).player_values == (0, 0)
        with pytest.raises(TrivialGame):
            pgi_normalized(game)


class TestPGV:
    def test_family_choice(self):
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
        mcc = pgv_tu(game, family="mcc")
        rgc = pgv_tu(game, family="rgc")
        assert mcc.player_values == (
            Fraction(3) + Fraction(13, 5),
            Fraction(3, 2) + Fraction(13, 5),
            Fraction(3, 2) + Fraction(13, 5),
        )
        assert rgc.player_values == (Fraction(3), Fraction(3, 2), Fraction(3, 2))

    def test_unknown_family(self, example33):
        tu = make_tu_game(1, {frozenset(): 0, frozenset({1}): 1})
        with pytest.raises(ValueError, match=r"must be one of \['mcc', 'rgc'\], got 'nope'"):
            pgv_tu(tu, family="nope")

    def test_simple_embedding_matches_pgi(self, quota_simple):
        tu = embed_2k_as_tu(embed_simple(quota_simple))
        assert pgv_tu(tu).player_values == pgi_raw(quota_simple).player_values

    def test_potential_is_family_total(self):
        rng = random.Random(3)
        for _ in range(10):
            game = random_monotone_tu(3, rng)
            report = pgv_tu(game)
            assert report.potential == tu_potential(game)


class TestPotentialIdentity:
    def test_value_is_potential_difference(self):
        rng = random.Random(17)
        for n, j, k in ((2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2)):
            for _ in range(15):
                game = random_monotone_jk(n, j, k, rng)
                psi = public_good_value_jk(game).player_values
                P = jk_potential(game)
                for pos, i in enumerate(game.players()):
                    assert psi[pos] == P - jk_potential(remove_player(game, i))

    def test_recursive_agrees(self):
        rng = random.Random(29)
        for _ in range(20):
            game = random_monotone_jk(3, 3, 3, rng)
            assert jk_potential_recursive(game) == jk_potential(game)

    def test_recursion_cap(self):
        with pytest.raises(RecursionCapExceeded):
            jk_potential_recursive(zero_game(21, 2, 2))

    def test_recursion_respects_table_cap(self, example33):
        # the recursion holds 2^n = 8 coalition totals; for base 2, check_cap's
        # guard refuses every n >= cap.bit_length() before sizing, naming n
        assert jk_potential_recursive(example33, cap=8) == 6
        with pytest.raises(CapExceeded, match="3 players are beyond the cap 7"):
            jk_potential_recursive(example33, cap=7)
        with pytest.raises(RecursionCapExceeded):
            jk_potential_recursive(zero_game(21, 2, 2), cap=1)

    def test_lambda_decomposes_over_supports(self, example33):
        # Lambda counts each MCV worth once per supporter
        assert lambda_total(example33) == 15
        assert sum(public_good_value_jk(example33).player_values) == 15


def _per_subgame_potential(game):
    """The averaging recursion with every subgame built and its distributed
    total read off its own listing: the naive reference route."""
    memo = {frozenset(): Fraction(0)}
    for size in range(1, game.n + 1):
        for S in map(frozenset, itertools.combinations(game.players(), size)):
            memo[S] = (lambda_total(subgame(game, S)) + sum(memo[S - {i}] for i in S)) / size
    return memo[frozenset(game.players())]


class TestRecursionRoutes:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(
            ((0, 2, 2), (1, 4, 3), (2, 3, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 2))
        ),
        simple_n=st.integers(1, 6),
        embedded=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_subset_sums_match_subgames_and_direct(self, shape, simple_n, embedded, seed):
        # random monotone (j,k) games, or (2,2) embeddings of random simple games
        rng = random.Random(seed)
        if embedded:
            players = range(1, simple_n + 1)
            gens = [rng.sample(players, rng.randint(1, simple_n)) for _ in range(rng.randint(0, 4))]
            game = embed_simple(simple_game_from_generators(simple_n, gens))
        else:
            game = random_monotone_jk(*shape, rng)
        assert jk_potential_recursive(game) == _per_subgame_potential(game) == jk_potential(game)


class TestCriticalityCounts:
    def test_example_counts(self, example33):
        assert [criticality_count(example33, i) for i in (1, 2, 3)] == [5, 4, 3]
        assert total_criticality(example33) == 12

    def test_counts_equal_variant(self):
        # criticality_count reads the variant report, so the reference side
        # counts (x, tau) pairs literally, over the down-set oracle's vectors
        rng = random.Random(41)
        for shape in [(3, 3, 3)] * 20 + [(2, 4, 4), (3, 2, 4), (4, 3, 2)] * 5:
            game = random_monotone_jk(*shape, rng)
            literal = [
                sum(
                    1
                    for x, w in minimal_critical_vectors_oracle(game).pairs()
                    if x[i - 1]
                    for tau in range(1, game.k)
                    if w >= tau > evaluate(game, decrement(x, i))
                )
                for i in game.players()
            ]
            assert [criticality_count(game, i) for i in game.players()] == literal
            assert list(variant_value(game).player_values) == literal
            assert total_criticality(game) == sum(literal)

    def test_unknown_player(self, example33):
        with pytest.raises(UnknownPlayer):
            criticality_count(example33, 0)

    def test_trivial_variant_normalization_refused(self):
        with pytest.raises(TrivialGame):
            normalized_variant(zero_game(2, 3, 3))
