import functools
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    TrivialGame,
    axiom_report,
    decompose,
    is_mergeable,
    is_null_player,
    make_table_game,
    mcv_union_check,
    minimal_critical_vectors,
    normalized_variant,
    oplus,
    permute,
    public_good_value_jk,
    single_mcv_game,
    total_criticality,
    variant_value,
    zero_game,
)
from pgindex.algebra import CLAUSE_GE, CLAUSE_LE, CLAUSE_SHARED, _union_holds
from pgindex.errors import (
    CapExceeded,
    DimensionMismatch,
    LevelOutOfRange,
    NotAPermutation,
    NotMergeable,
    ValidationError,
)
from pgindex.games import decrement, evaluate

from gamegen import random_monotone_jk


class TestOplus:
    def test_pointwise_max(self):
        rng = random.Random(2)
        v = random_monotone_jk(2, 3, 3, rng)
        w = random_monotone_jk(2, 3, 3, rng)
        m = oplus(v, w)
        for x in m.profiles():
            assert evaluate(m, x) == max(evaluate(v, x), evaluate(w, x))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            oplus(zero_game(2, 2, 2), zero_game(2, 3, 3))


class TestSingleMCVGames:
    def test_levels(self):
        game = single_mcv_game((1, 1, 0), 1, 2, 2)
        assert evaluate(game, (1, 1, 0)) == 1
        assert evaluate(game, (1, 1, 1)) == 1
        assert evaluate(game, (1, 0, 1)) == 0
        assert minimal_critical_vectors(game).as_dict() == {(1, 1, 0): 1}

    def test_zero_profile_rejected(self):
        with pytest.raises(ValidationError):
            single_mcv_game((0, 0), 1, 2, 2)

    def test_worth_in_range(self):
        with pytest.raises(LevelOutOfRange):
            single_mcv_game((1, 0), 3, 2, 2)

    def test_table_is_capped(self):
        with pytest.raises(CapExceeded):
            single_mcv_game((1,) * 60, 1, 2, 2)

    @pytest.mark.parametrize("x", [(1, True), (1, 1.0), (True, 0), (0, 0.0), (1, "1")])
    def test_profile_entries_are_int_levels(self, x):
        # a bool passes 0 <= a < j, and would put True into a valid-by-type table
        with pytest.raises(LevelOutOfRange):
            single_mcv_game(x, 1, 2, 2)

    @pytest.mark.parametrize("worth", [True, 1.0, "1", None])
    def test_worth_is_an_int_level(self, worth):
        with pytest.raises(LevelOutOfRange):
            single_mcv_game((1, 1), worth, 2, 2)


class TestMergeability:
    def test_worked_pair(self):
        u1 = single_mcv_game((1, 1, 0), 1, 2, 2)
        u2 = single_mcv_game((0, 1, 1), 1, 2, 2)
        report = is_mergeable(u1, u2)
        assert report.mergeable
        assert report.violations == ()
        assert mcv_union_check(u1, u2)

    def test_comparable_same_worth_fails_C2(self):
        a = single_mcv_game((1, 0), 1, 2, 2)
        b = single_mcv_game((1, 1), 1, 2, 2)
        report = is_mergeable(a, b)
        assert not report.mergeable
        assert ((1, 0), (1, 1), CLAUSE_LE) in report.violations

    def test_shared_vector_fails_C1(self):
        a = single_mcv_game((1, 1), 1, 2, 2)
        report = is_mergeable(a, a)
        assert not report.mergeable
        clauses = {v.clause for v in report.violations}
        assert CLAUSE_SHARED in clauses

    def test_ge_clause(self):
        a = single_mcv_game((1, 1), 1, 2, 3)
        b = single_mcv_game((1, 0), 2, 2, 3)
        report = is_mergeable(a, b)
        assert not report.mergeable
        assert ((1, 1), (1, 0), CLAUSE_GE) in report.violations

    def test_violations_sorted(self):
        a = single_mcv_game((1, 1, 1), 1, 2, 2)
        levels = [0] * 8
        for idx in range(1, 8):
            levels[idx] = 1
        b = make_table_game(3, 2, 2, levels)  # MCVs (0,0,1),(0,1,0),(1,0,0)
        report = is_mergeable(a, b)
        assert list(report.violations) == sorted(report.violations)

    def test_union_check_requires_mergeable(self):
        a = single_mcv_game((1, 0), 1, 2, 2)
        b = single_mcv_game((1, 1), 1, 2, 2)
        with pytest.raises(NotMergeable):
            mcv_union_check(a, b)

    def test_union_lemma_contents(self):
        u1 = single_mcv_game((2, 0), 1, 3, 3)
        u2 = single_mcv_game((0, 2), 2, 3, 3)
        assert is_mergeable(u1, u2).mergeable
        merged = minimal_critical_vectors(oplus(u1, u2))
        assert merged.as_dict() == {(2, 0): 1, (0, 2): 2}
        # the listings concatenate out of table order one way round
        assert mcv_union_check(u1, u2) and mcv_union_check(u2, u1)
        # a shared vector is listed once in the merged game, twice in the union
        assert not _union_holds(u1, u1)

    def test_criticality_additive_on_mergeable(self):
        u1 = single_mcv_game((1, 1, 0), 1, 2, 2)
        u2 = single_mcv_game((0, 1, 1), 1, 2, 2)
        merged = oplus(u1, u2)
        v1 = variant_value(u1).player_values
        v2 = variant_value(u2).player_values
        vm = variant_value(merged).player_values
        assert vm == tuple(a + b for a, b in zip(v1, v2))


class TestPermutations:
    def test_example_anonymity(self, example33):
        base = public_good_value_jk(example33).player_values
        for pi in permutations((1, 2, 3)):
            moved = public_good_value_jk(permute(example33, pi)).player_values
            # value of pi(i) in the permuted game equals value of i originally
            for pos, i in enumerate((1, 2, 3)):
                assert moved[pi[pos] - 1] == base[pos]

    def test_provenance_moves_with_players(self, example33):
        moved = permute(example33, (3, 2, 1))
        assert moved.provenance.weights == (1, 2, 3)

    def test_not_a_permutation(self, example33):
        with pytest.raises(NotAPermutation):
            permute(example33, (1, 1, 2))
        with pytest.raises(NotAPermutation):
            permute(example33, (1, 2))


class TestNullPlayers:
    def test_detects_unused_coordinate(self):
        game = single_mcv_game((1, 1, 0), 1, 2, 2)
        assert is_null_player(game, 3)
        assert not is_null_player(game, 1)

    def test_random_consistency(self):
        rng = random.Random(13)
        for _ in range(10):
            game = random_monotone_jk(3, 2, 3, rng)
            for i in game.players():
                claimed = is_null_player(game, i)
                brute = all(
                    evaluate(game, x)
                    == evaluate(game, tuple(0 if p == i - 1 else a for p, a in enumerate(x)))
                    for x in game.profiles()
                )
                assert claimed == brute


class TestDecomposition:
    def test_reconstructs_example(self, example33):
        parts = decompose(example33)
        assert len(parts) == 5
        rebuilt = parts[0]
        for part in parts[1:]:
            rebuilt = oplus(rebuilt, part)
        assert rebuilt.levels == example33.levels

    def test_each_part_single_mcv(self, example33):
        for part in decompose(example33):
            assert len(minimal_critical_vectors(part)) == 1

    def test_zero_game(self):
        assert decompose(zero_game(2, 2, 2)) == ()


class TestAxioms:
    def test_worked_pair_all_pass(self):
        u1 = single_mcv_game((1, 1, 0), 1, 2, 2)
        u2 = single_mcv_game((0, 1, 1), 1, 2, 2)
        report = axiom_report(u1, u2)
        assert report.all_pass
        statuses = {r.axiom: r.status for r in report.results}
        assert statuses == {"A1": "pass", "A2": "pass", "A3": "pass", "A4": "pass"}

    def test_merged_normalized_value(self):
        u1 = single_mcv_game((1, 1, 0), 1, 2, 2)
        u2 = single_mcv_game((0, 1, 1), 1, 2, 2)
        merged = oplus(u1, u2)
        assert normalized_variant(merged).player_values == (
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1, 4),
        )
        assert total_criticality(u1) == total_criticality(u2) == 2

    def test_axioms_without_second_game(self, example33):
        report = axiom_report(example33)
        statuses = {r.axiom: r.status for r in report.results}
        assert statuses["A2"] == "pass"
        assert statuses["A1"] == "vacuous"  # no null players here
        assert statuses["A3"] == "vacuous"  # five MCVs, not one
        assert statuses["A4"] == "skipped"

    def test_trivial_game_refused(self):
        with pytest.raises(TrivialGame):
            axiom_report(zero_game(2, 2, 2))

    def test_non_mergeable_pair_refused(self):
        a = single_mcv_game((1, 0), 1, 2, 2)
        b = single_mcv_game((1, 1), 1, 2, 2)
        with pytest.raises(NotMergeable):
            axiom_report(a, b)


def _sparse_or_random(n: int, j: int, k: int, rng: random.Random):
    """A random monotone game, or the pointwise maximum of a few
    single-vector games, which is far more often mergeable with another."""
    if rng.random() < 0.5:
        return random_monotone_jk(n, j, k, rng)
    parts = []
    while not parts or rng.random() < 0.5:
        x = [rng.randrange(j) for _ in range(n)]
        if any(x):
            parts.append(single_mcv_game(x, rng.randrange(1, k), j, k))
    return functools.reduce(oplus, parts)


def _mergeable_pair(seed: int):
    """The first mergeable pair of non-constant games drawn from ``seed``,
    on n in {2, 3}, j in {2, 3} and k in {3, 4}."""
    rng = random.Random(seed)
    n, j, k = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((3, 4))
    while True:
        v, w = (_sparse_or_random(n, j, k, rng) for _ in range(2))
        if not (v.trivial or w.trivial) and is_mergeable(v, w).mergeable:
            return v, w


def _added(report, v, w) -> bool:
    """Whether ``report`` of v⊕w gives each player their report in v plus w."""
    pairs = zip(report(v).player_values, report(w).player_values)
    return report(oplus(v, w)).player_values == tuple(a + b for a, b in pairs)


class TestMergeAdditivity:
    """The two statements proved from the union lemma in the docstring of
    ``algebra._axiom_merge``, on random mergeable pairs."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_potential_value_adds_up(self, seed):
        v, w = _mergeable_pair(seed)
        assert _added(public_good_value_jk, v, w)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_variant_adds_up_iff_no_predecessor_is_lifted(self, seed):
        v, w = _mergeable_pair(seed)
        lifted = [
            (x, p)
            for own, other in ((v, w), (w, v))
            for x in minimal_critical_vectors(own).vectors
            for p in own.players()
            if x[p - 1] and evaluate(other, decrement(x, p)) > evaluate(own, decrement(x, p))
        ]
        assert _added(variant_value, v, w) == (not lifted)
        if not lifted:
            a4 = axiom_report(v, w).results[-1]
            assert (a4.axiom, a4.status) == ("A4", "pass")

    def test_a_lifted_predecessor(self):
        # v's vector (1,1) has predecessor (1,0), which w lifts to 1
        v = make_table_game(2, 2, 3, [0, 0, 0, 2])
        w = make_table_game(2, 2, 3, [0, 0, 1, 1])
        assert is_mergeable(v, w).mergeable
        assert _added(public_good_value_jk, v, w) and not _added(variant_value, v, w)
