"""Average-game reduction of a (j,k) simple game to a TU game.

The worth of a coalition S averages, over every profile of the full input
space, the output gain from pinning S to the top level versus the bottom
level, scaled by 1/(j^n (k-1)). The sum deliberately runs over all of
{0..j-1}^n even though only the outside-S coordinates matter, so each
outside assignment is counted j^|S| times; ``average_worth_oracle``
recomputes a single worth by the reduced sum and explicit multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvariantViolation
from .games import (
    Coalition,
    DEFAULT_CAP,
    JKGame,
    TUGame,
    all_coalitions,
    all_profiles,
    check_cap,
    make_tu_game,
)
from .indices import IndexReport, pgv_tu, public_good_value_jk, variant_value


@dataclass(frozen=True)
class AverageGameResult:
    """The reduced TU game, the scale 1/(j^n (k-1)), and the source game."""

    tu: TUGame
    scale: Fraction
    source: JKGame


@dataclass(frozen=True)
class ValueComparison:
    """PGV of the average game next to the direct (j,k) values."""

    average: AverageGameResult
    pgv_of_average: IndexReport
    jk_value: IndexReport
    variant: IndexReport
    equal_after_normalization: bool
    degenerate: bool


def _pinned(x, members: Coalition, level: int) -> tuple[int, ...]:
    return tuple(level if p + 1 in members else a for p, a in enumerate(x))


def average_game(game: JKGame, *, cap: int = DEFAULT_CAP) -> AverageGameResult:
    """Reduce to a TU game by averaging top-versus-bottom pinning gains."""
    check_cap(game.n, 2 * game.j, cap, "averaging would take {} evaluations")
    scale = Fraction(1, game.j ** game.n * (game.k - 1))
    worths = {}
    for S in all_coalitions(game.n):
        total = 0
        for x in game.profiles():
            total += game.value(_pinned(x, S, game.j - 1))
            total -= game.value(_pinned(x, S, 0))
        worths[S] = total * scale
    tu = make_tu_game(game.n, worths, labels=game.labels)
    if not tu.monotone:
        raise InvariantViolation("averaging a monotone game must stay monotone")
    if not all(0 <= q <= 1 for q in tu.worths):
        raise InvariantViolation("average worths must lie in [0, 1]")
    return AverageGameResult(tu, scale, game)


def average_worth_oracle(game: JKGame, coalition: Iterable[int]) -> Fraction:
    """One coalition's average worth by the reduced outside-profile sum."""
    members = frozenset(coalition)
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


def compare_pgv_vs_jk(
    game: JKGame, *, family: str = "mcc", cap: int = DEFAULT_CAP
) -> ValueComparison:
    """Compare the TU Public Good value of the average game against the
    direct potential-based and surplus values of the source game. Equality
    is judged after normalizing the PGV and the potential-based value to
    sum 1; the constant-0 game is flagged degenerate instead."""
    average = average_game(game, cap=cap)
    pgv = pgv_tu(average.tu, family)
    jk = public_good_value_jk(game)
    variant = variant_value(game)
    degenerate = game.trivial
    if degenerate:
        equal = False
    else:
        pgv_total = sum(pgv.player_values)
        jk_total = sum(jk.player_values)
        equal = tuple(q / pgv_total for q in pgv.player_values) == tuple(
            q / jk_total for q in jk.player_values
        )
    return ValueComparison(average, pgv, jk, variant, equal, degenerate)
