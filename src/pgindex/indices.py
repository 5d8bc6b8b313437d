"""Public Good index and value computations for all three game classes.

The raw index of a simple game counts, per player, the minimal winning
coalitions containing them. The TU value sums the worths of the minimal
critical (or real gaining) coalitions containing a player. The (j,k)
value credits each player with the summed worths of the minimal critical
vectors they support; the surplus variant credits only the margin the
player's own level secures. One pass per game and family over the ranks
of its listing gives these reports, kept on the listing; the potentials,
distributed totals and criticality counts read them. Every potential-based
value is reproduced by differences of a potential P, computable directly
from the minimal critical structure or by the averaging recursion.

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
    _halves,
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


def _tally(game: JKGame | SimpleGame | TUGame, family: str = "mcc") -> tuple[IndexReport, ...]:
    """The one value pass of a game and family, kept on its listing: the value
    report, and for a (j,k) game the surplus report. Each rank of the listing
    joins its supporters from :func:`games._halves` and reads its worth w from
    the integer table, a TU game's numerators over d; each supporter p gets w,
    and in the surplus report w - v(x - e_p), read one stride of p below."""
    listing = minimal_critical_vectors(game) if isinstance(game, JKGame) else _listing(game, family)
    if "_reports" in listing.__dict__:
        return listing.__dict__["_reports"]
    n, j, jk = game.n, getattr(game, "j", 2), isinstance(game, JKGame)
    if isinstance(game, TUGame):
        table, d, variants = game.numerators, game.denominator, ("tu_pgv",)
    else:
        table, d = game.levels, 1
        variants = ("potential_value", "surplus_variant") if jk else ("raw_pgi",)
    high, low = _halves(n, j, lambda x, first: [p for p, level in enumerate(x, first - 1) if level])
    strides = [j ** (n - 1 - p) for p in range(n)]
    values, surplus, potential, lam = [0] * n, [0] * n, 0, 0
    for rank in listing.__dict__["_ranks"]:
        h, q = divmod(rank, len(low))
        w, positions = table[rank], high[h] + low[q]
        potential += w
        lam += w * len(positions)
        for p in positions:
            values[p] += w
        if jk:
            for p in positions:
                surplus[p] += w - table[rank - strides[p]]
    totals = Fraction(potential, d), Fraction(lam, d)
    widened = tuple(Fraction(v, d) for v in values)
    limit = sys.get_int_max_str_digits()
    # in-limit worths can sum beyond it; no surplus sum exceeds its value sum
    if any(_over_digit_limit(q.numerator, limit) for q in (*totals, *widened)):
        raise DigitLimitExceeded(f"a sum of the game's worths exceeds {limit} digits")
    columns = (widened, tuple(map(Fraction, surplus)))
    players = getattr(game, "labels", tuple(game.players()))
    reports = tuple(IndexReport(v, players, q, *totals, listing) for v, q in zip(variants, columns))
    listing.__dict__["_reports"] = reports
    return reports


# ---------------------------------------------------------------------------
# simple games


def pgi_raw(game: SimpleGame) -> IndexReport:
    """Raw Public Good index: memberships in minimal winning coalitions,
    each of worth 1."""
    return _tally(game)[0]


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
    return _tally(game, family)[0]


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
    return _tally(game)[0]


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
    return _tally(game)[1]


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
