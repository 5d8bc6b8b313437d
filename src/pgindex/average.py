"""Average-game reduction of a (j,k) simple game to a TU game.

The worth of a coalition S averages, over every profile of the full input
space, the output gain from pinning S to the top level versus the bottom
level, scaled by 1/(j^n (k-1)). Only the coordinates outside S vary under
the pinning, so each outside assignment is counted j^|S| times.
``average_game`` computes all 2^n sums at once by an axis-wise reduction
of the table (Yates 1937; Björklund, Husfeldt, Kaski and Koivisto, STOC
2007): each pass replaces one coordinate's j entries by their sum and by
j times the pinned entry, once pinning to the top level and once to the
bottom, so the multiplicity j^|S| is built in.
``average_worth_oracle`` is its naive twin: it recomputes one worth by
the explicit sum over the outside profiles and the multiplicity j^|S|.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import sub
from typing import Iterable

from .errors import DigitLimitExceeded, InvariantViolation
from .games import (
    DEFAULT_CAP,
    JKGame,
    TUGame,
    _Record,
    _check_players,
    _lowest_terms,
    _over_digit_limit,
    all_profiles,
    check_cap,
)
from .indices import IndexReport, pgv_tu, public_good_value_jk, variant_value


class AverageGameResult(_Record):
    """The reduced TU game and the scale 1/(j^n (k-1))."""

    tu: TUGame
    scale: Fraction


class ValueComparison(_Record):
    """PGV of the average game next to the direct (j,k) values."""

    average: AverageGameResult
    pgv_of_average: IndexReport
    jk_value: IndexReport
    variant: IndexReport
    equal_after_normalization: bool
    degenerate: bool


def _pin_or_sum(levels: tuple[int, ...], n: int, j: int, pin: int) -> list[int]:
    """Reduce the table one coordinate at a time, last to first: each pass
    replaces the last coordinate's j entries by their sum and j times the
    entry at level ``pin``, and puts that two-way choice in front. After n
    passes the table is in coalition-rank order: members pinned, the others
    summed, each entry counted j^|S| times."""
    table = list(levels)
    for _ in range(n):
        table = [*map(sum, zip(*(table[a::j] for a in range(j)))), *(j * e for e in table[pin::j])]
    return table


def average_game(game: JKGame, *, cap: int = DEFAULT_CAP) -> AverageGameResult:
    """Reduce to a TU game by averaging top-versus-bottom pinning gains."""
    check_cap(game.n, game.j, cap, "averaging would reduce {} table entries")
    unit = game.j ** game.n * (game.k - 1)
    top = _pin_or_sum(game.levels, game.n, game.j, game.j - 1)
    bottom = _pin_or_sum(game.levels, game.n, game.j, 0)
    # worth(∅) = 0: with no member pinned, both tables sum the same entries
    tu = _lowest_terms(game.n, [*map(sub, top, bottom)], unit, game.labels)
    limit = sys.get_int_max_str_digits()
    if _over_digit_limit(unit, limit):  # checked after the worths' bound, which names D
        raise DigitLimitExceeded(f"the scale's denominator j^n (k-1) exceeds {limit} digits")
    if not tu.monotone:
        raise InvariantViolation("averaging a monotone game must stay monotone")
    if not all(0 <= p <= tu.denominator for p in tu.numerators):
        raise InvariantViolation("average worths must lie in [0, 1]")
    return AverageGameResult(tu, Fraction(1, unit))


def average_worth_oracle(game: JKGame, coalition: Iterable[int]) -> Fraction:
    """One coalition's average worth by the reduced outside-profile sum."""
    members = _check_players(coalition, game.n)
    outside = [p for p in game.players() if p not in members]
    total = 0
    base = [0] * game.n
    for y in all_profiles(len(outside), game.j):
        for pos, level in zip(outside, y):
            base[pos - 1] = level
        for p in members:
            base[p - 1] = game.j - 1
        hi = game.value(base)
        for p in members:
            base[p - 1] = 0
        total += hi - game.value(base)
    multiplicity = game.j ** len(members)
    return Fraction(total * multiplicity, game.j ** game.n * (game.k - 1))


def compare_pgv_vs_jk(game: JKGame, *, cap: int = DEFAULT_CAP) -> ValueComparison:
    """Compare the TU Public Good value of the average game against the
    direct potential-based and surplus values of the source game. Equality
    is judged after normalizing the PGV and the potential-based value to
    sum 1; the constant-0 game is flagged degenerate instead. The average
    game is monotone, so its minimal critical and real gaining coalitions
    coincide and the PGV is that of either family."""
    average = average_game(game, cap=cap)
    pgv = pgv_tu(average.tu)
    jk = public_good_value_jk(game)
    variant = variant_value(game)
    degenerate = game.trivial
    if degenerate:
        equal = False
    else:
        # each value report's credits sum to its distributed total
        shares = [[q / r.lambda_total for q in r.player_values] for r in (pgv, jk)]
        equal = shares[0] == shares[1]
    return ValueComparison(average, pgv, jk, variant, equal, degenerate)
