"""Public Good index and value computations for all three game classes.

The raw index of a simple game counts, per player, the minimal winning
coalitions containing them. The TU value sums the worths of the minimal
critical (or real gaining) coalitions containing a player. The (j,k)
value credits each player with the summed worths of the minimal critical
vectors they support; the surplus variant credits only the margin the
player's own level secures. Every potential-based value is reproduced by
differences of a potential P, computable directly from the minimal
critical structure or by the averaging recursion over subgames.

Values are exact Fractions; raw counts are widened to Fraction in reports.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add

from .errors import DigitLimitExceeded, RecursionCapExceeded, TrivialGame
from .critical import (
    CoalitionSet,
    MCVSet,
    _listing,
    minimal_critical_vectors,
)
from .games import (
    DEFAULT_CAP,
    JKGame,
    SimpleGame,
    TUGame,
    _Record,
    _check_players,
    _over_digit_limit,
    check_cap,
    profile_index,
)

RECURSION_CAP = 20


class IndexReport(_Record):
    """Per-player values with the potential and distributed-total context.

    ``players`` holds external labels; ``player_values`` is aligned with
    them positionally. ``potential`` and ``lambda_total`` always describe
    the game itself (sum of listing worths, and that sum weighted by
    support sizes), whatever the variant.
    """

    variant: str
    players: tuple[int, ...]
    player_values: tuple[Fraction, ...]
    potential: Fraction
    lambda_total: Fraction
    listing: MCVSet | CoalitionSet


def _normalized(report: IndexReport, variant: str) -> IndexReport:
    total = sum(report.player_values)
    shares = tuple(q / total for q in report.player_values)
    return IndexReport(
        variant, report.players, shares, report.potential, report.lambda_total, report.listing
    )


def _tally(variant: str, players: tuple, listing, support, surplus_of=None, d=1) -> IndexReport:
    """One pass over a listing of (x, w): potential, distributed total (w times
    ``len(support(x))``) and per supporter p the credit w, or, given the game
    ``surplus_of``, the surplus w - v(x - e_p) read from its table by rank.
    Worths are summed as the integers w·d, for d the TU game's denominator
    (1 otherwise), and each sum is divided by d once at the end."""
    values = [0] * len(players)
    potential = lam = 0
    if surplus_of is not None:
        levels, j = surplus_of.levels, surplus_of.j
        strides = [j ** (surplus_of.n - 1 - p) for p in range(surplus_of.n)]
    for x, w in listing.pairs():
        w = w.numerator * (d // w.denominator)
        positions = support(x)
        potential += w
        lam += w * len(positions)
        rank = None if surplus_of is None else profile_index(x, j)
        for p in positions:
            values[p] += w if rank is None else w - levels[rank - strides[p]]
    widened = tuple(Fraction(v, d) for v in values)
    totals = Fraction(potential, d), Fraction(lam, d)
    limit = sys.get_int_max_str_digits()
    # in-limit worths can sum beyond the limit; denominators divide d, which is within it
    if any(_over_digit_limit(q.numerator, limit) for q in (*totals, *widened)):
        raise DigitLimitExceeded(f"a sum of the game's worths exceeds {limit} digits")
    return IndexReport(variant, players, widened, *totals, listing)


def _members(coalition) -> list[int]:
    return [i - 1 for i in coalition]


def _support(x) -> list[int]:
    return [p for p, level in enumerate(x) if level]


# ---------------------------------------------------------------------------
# simple games


def pgi_raw(game: SimpleGame) -> IndexReport:
    """Raw Public Good index: memberships in minimal winning coalitions,
    each of worth 1."""
    return _tally("raw_pgi", tuple(game.players()), _listing(game), _members)


def pgi_normalized(game: SimpleGame) -> IndexReport:
    """Raw index rescaled to sum to 1."""
    raw = pgi_raw(game)
    if not raw.listing.coalitions:
        raise TrivialGame("no winning coalitions; the normalized index is undefined")
    return _normalized(raw, "normalized_pgi")


# ---------------------------------------------------------------------------
# TU games


def pgv_tu(game: TUGame, family: str = "mcc") -> IndexReport:
    """Public Good value: per player, the summed worths of the coalitions
    in the chosen family (minimal critical by default, real gaining on
    request) that contain them."""
    listing = _listing(game, family)
    return _tally("tu_pgv", tuple(game.labels), listing, _members, d=game.denominator)


def tu_potential(game: TUGame) -> Fraction:
    """Sum of the worths of all minimal critical coalitions."""
    return pgv_tu(game).potential


# ---------------------------------------------------------------------------
# (j,k) simple games


def jk_potential(game: JKGame) -> Fraction:
    """Sum of the worths of all minimal critical vectors."""
    return public_good_value_jk(game).potential


def lambda_total(game: JKGame) -> Fraction:
    """Total distributed worth: each minimal critical vector's worth times
    the number of players supporting it."""
    return public_good_value_jk(game).lambda_total


def public_good_value_jk(game: JKGame) -> IndexReport:
    """Potential-based value: summed worths of the supported vectors."""
    return _tally("potential_value", tuple(game.labels), minimal_critical_vectors(game), _support)


def jk_potential_recursive(game: JKGame, *, cap: int = DEFAULT_CAP) -> Fraction:
    """The potential by the averaging recursion over all subgames:
    P(v_S) = (Lambda(v_S) + sum over i in S of P(v_{S without i})) / |S|,
    with P = 0 at the empty coalition; capped at 20 players, and at ``cap``
    coalition totals, 2^n. The subgame on S keeps the minimal critical
    vectors supported inside S (the scan decides x from x's entry and its
    predecessors along x's positive coordinates), so one subset-sum pass
    over the cached listing, w·|supp x| at its support's rank, gives every
    Lambda(v_S). The memo holds the integers Q(S) = |S|!·P(v_S).
    """
    if game.n > RECURSION_CAP:
        raise RecursionCapExceeded(
            f"recursive potential capped at {RECURSION_CAP} players, game has {game.n}"
        )
    size = check_cap(game.n, 2, cap, "recursion would hold {} coalition totals")
    lam = [0] * size
    for x, w in minimal_critical_vectors(game).pairs():
        support = [level > 0 for level in x]
        lam[profile_index(support, 2)] += w * sum(support)
    lam = _subset_sums(lam, game.n)
    memo = [0] * size
    for rank in range(1, size):
        below = sum(memo[rank ^ 1 << p] for p in range(game.n) if rank >> p & 1)
        memo[rank] = math.factorial(rank.bit_count() - 1) * lam[rank] + below
    return Fraction(memo[-1], math.factorial(game.n))


def _subset_sums(table: list[int], n: int) -> list[int]:
    """Each coalition's sum of the entries of its subsets, in rank order:
    each pass sums along the last axis and moves it to the front."""
    for _ in range(n):
        table = [*table[::2], *map(add, table[::2], table[1::2])]
    return table


def variant_value(game: JKGame) -> IndexReport:
    """Marginal-surplus variant: each supporter i of a minimal critical
    vector x is credited w - v(x - e_i), the drop their level prevents."""
    return _tally(
        "surplus_variant", tuple(game.labels), minimal_critical_vectors(game), _support, game
    )


def criticality_count(game: JKGame, i: int) -> int:
    """Number of (vector, threshold) pairs at which player i is critical:
    pairs (x, tau) with x minimal critical, v(x) >= tau, and lowering i's
    level at x dropping the output below tau.

    This is player i's surplus credit. If x_i > 0, x beats its immediate
    predecessor x - e_i, so 0 <= v(x - e_i) < v(x) = w <= k - 1, and i is
    critical exactly for tau = v(x - e_i) + 1, ..., w: w - v(x - e_i)
    thresholds. If x_i = 0, i is critical for none and gets no credit.
    """
    _check_players((i,), game.n)
    return int(variant_value(game).player_values[i - 1])


def total_criticality(game: JKGame) -> int:
    """Criticality count summed over all players: the surplus credits'
    total (see :func:`criticality_count`)."""
    return int(sum(variant_value(game).player_values))


def normalized_variant(game: JKGame) -> IndexReport:
    """Surplus variant rescaled to sum to 1; undefined on the constant-0
    game."""
    if game.trivial:
        raise TrivialGame("the constant-0 game has no normalized value")
    return _normalized(variant_value(game), "normalized_variant")
