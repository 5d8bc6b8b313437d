import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    CapExceeded,
    average_game,
    average_worth_oracle,
    compare_pgv_vs_jk,
    make_table_game,
    minimal_critical_coalitions,
    pgv_tu,
    zero_game,
)
from pgindex.errors import DigitLimitExceeded, InvariantViolation, UnknownPlayer
from pgindex.games import all_coalitions

from conftest import AVERAGE33_WORTHS
from gamegen import random_monotone_jk


class TestExampleAverage:
    def test_worths(self, example33):
        result = average_game(example33)
        assert result.scale == Fraction(1, 54)
        for S, expected in AVERAGE33_WORTHS.items():
            assert result.tu.worth(S) == expected

    def test_pgv_of_average(self, example33):
        tu = average_game(example33).tu
        report = pgv_tu(tu)
        assert report.player_values == (
            Fraction(51, 18),
            Fraction(44, 18),
            Fraction(42, 18),
        )

    def test_every_nonempty_coalition_minimal_critical(self, example33):
        tu = average_game(example33).tu
        assert minimal_critical_coalitions(tu) == frozenset(
            S for S in all_coalitions(3) if S
        )

    def test_oracle_agreement(self, example33):
        result = average_game(example33)
        for S in all_coalitions(3):
            assert result.tu.worth(S) == average_worth_oracle(example33, S)

    def test_oracle_checks_its_coalition(self, example33):
        for S in ([0], [True], [4], [1, "2"]):
            with pytest.raises(UnknownPlayer):
                average_worth_oracle(example33, S)


class TestAverageProperties:
    def test_monotone_unit_range_randomly(self):
        rng = random.Random(19)
        for n, j, k in ((2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3)):
            for _ in range(10):
                game = random_monotone_jk(n, j, k, rng)
                tu = average_game(game).tu
                assert tu.monotone
                assert tu.worth(frozenset()) == 0
                for S in all_coalitions(n):
                    assert 0 <= tu.worth(S) <= 1
                    assert tu.worth(S) == average_worth_oracle(game, S)

    def test_zero_game_averages_to_zero(self):
        tu = average_game(zero_game(2, 3, 3)).tu
        assert all(tu.worth(S) == 0 for S in all_coalitions(2))

    def test_cap_counts_table_entries(self):
        # the reduction holds at most j^n = 27 entries, not the oracle's (2j)^n: the
        # game's own table, which passed the cap when the game was built
        with pytest.raises(CapExceeded):
            make_table_game(3, 3, 3, [0] * 27, cap=26)
        tu = average_game(make_table_game(3, 3, 3, [0] * 27, cap=27)).tu
        assert tu.worths == (0,) * 8

    @pytest.mark.parametrize(
        "worths, message",
        [
            # coalition-rank order: {}, {3}, {2}, {2,3}, {1}, {1,3}, {1,2}, {1,2,3}
            ((0, 1, 1, 0, 1, 1, 1, 1), "monotone"),
            ((0, 0, 0, 0, 0, 0, 0, 2), r"\[0, 1\]"),
        ],
    )
    def test_broken_invariant_raises(self, example33, monkeypatch, worths, message):
        # stands in for a faulty reduction: the invariants are checked, not assumed
        unit = 3 ** 3 * (3 - 1)  # 1/scale of example33, a (3,3) game on 3 players

        def broken(levels, n, j, pin):
            return [w * unit if pin else 0 for w in worths]

        monkeypatch.setattr("pgindex.average._pin_or_sum", broken)
        with pytest.raises(InvariantViolation, match=message):
            average_game(example33)

    def test_scale_beyond_the_digit_limit(self, digit_limit_640):
        # the worths are 0, so only the scale's denominator 2·(10^641 - 1) is too long
        with pytest.raises(DigitLimitExceeded) as info:
            average_game(zero_game(1, 2, 10 ** 641))
        assert str(info.value) == "the scale's denominator j^n (k-1) exceeds 640 digits"

    def test_labels_carried(self, example33):
        tu = average_game(example33).tu
        assert tu.labels == (1, 2, 3)


class TestComparison:
    def test_example_differs_after_normalization(self, example33):
        comp = compare_pgv_vs_jk(example33)
        assert not comp.degenerate
        # 51:44:42 is not the 6:5:4 split
        assert not comp.equal_after_normalization

    def test_jk_report_carried(self, example33):
        comp = compare_pgv_vs_jk(example33)
        assert comp.jk_value.player_values == (6, 5, 4)
        assert comp.pgv_of_average.player_values == (
            Fraction(17, 6),
            Fraction(22, 9),
            Fraction(7, 3),
        )

    def test_degenerate_on_trivial(self):
        comp = compare_pgv_vs_jk(zero_game(2, 2, 2))
        assert comp.degenerate
        assert not comp.equal_after_normalization

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(((1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3), (4, 2, 3))),
        seed=st.integers(0, 10 ** 6),
    )
    def test_average_pgv_is_that_of_either_family(self, shape, seed):
        # the average game is monotone, so its minimal critical and real gaining
        # coalitions coincide: the comparison needs no family
        tu = average_game(random_monotone_jk(*shape, random.Random(seed))).tu
        assert pgv_tu(tu, "mcc") == pgv_tu(tu, "rgc")
