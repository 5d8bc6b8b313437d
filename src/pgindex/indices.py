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

Values are exact: every sum is taken in integers, a TU game's worths as
numerators over its denominator, and a report keeps them so; its fields
read as Fractions (raw counts widened to Fraction), built on first read.
"""

from __future__ import annotations

import math
import sys

from .errors import DigitLimitExceeded, TrivialGame
from .critical import (
    CoalitionSet,
    MCVSet,
    _listing,
    minimal_critical_vectors,
)
from .games import (
    JKGame,
    SimpleGame,
    TUGame,
    _kept,
    _Rational,
    _Record,
    _check_players,
    _halves,
    _over_digit_limit,
)


class IndexReport(_Record):
    """Per-player values with the potential and distributed-total context.

    ``players`` holds external labels; ``player_values`` is aligned with
    them positionally. ``potential`` and ``lambda_total`` always describe
    the game itself (sum of listing worths, and that sum weighted by
    support sizes), whatever the variant. The value pass keeps the three
    rational fields as integers, the values over one denominator.
    """

    variant: str
    players: tuple[int, ...]
    player_values: tuple[Fraction, ...] = _Rational()
    potential: Fraction = _Rational()
    lambda_total: Fraction = _Rational()
    listing: MCVSet | CoalitionSet


def _normalized(report: IndexReport, variant: str) -> IndexReport:
    """The report's values over their sum: the same numerators over it."""
    values, _ = _kept(report, "player_values")
    totals = _kept(report, "potential"), _kept(report, "lambda_total")
    shares = values, sum(values)
    return IndexReport._from_ints(variant, report.players, shares, *totals, report.listing)


def _tally(game: JKGame | SimpleGame | TUGame, family: str = "mcc") -> tuple[IndexReport, ...]:
    """The one value pass of a game and family, kept on its listing: the value
    report, and for a (j,k) game the surplus report. Each rank of the listing
    joins its supporters from :func:`games._halves` and reads its worth w from
    the listing's kept integers, a TU game's numerators over d; each supporter
    p gets w, and in the surplus report w - v(x - e_p), read from the table one
    stride of p below."""
    listing = minimal_critical_vectors(game) if isinstance(game, JKGame) else _listing(game, family)
    if "_reports" in listing.__dict__:
        return listing.__dict__["_reports"]
    n, j, jk = game.n, getattr(game, "j", 2), isinstance(game, JKGame)
    worths, d = (listing.worths, 1) if jk else _kept(listing, "worths")
    variants = ("tu_pgv",) if isinstance(game, TUGame) else ("raw_pgi",)
    if jk:
        table, variants = game.levels, ("potential_value", "surplus_variant")
    high, low = _halves(n, j, lambda x, first: [p for p, level in enumerate(x, first - 1) if level])
    strides = [j ** (n - 1 - p) for p in range(n)]
    values, surplus, potential = [0] * n, [0] * n, 0
    for rank, w in zip(listing.__dict__["_ranks"], worths):
        h, q = divmod(rank, len(low))
        positions = high[h] + low[q]
        potential += w
        for p in positions:
            values[p] += w
        if jk:
            for p in positions:
                surplus[p] += w - table[rank - strides[p]]
    lam = sum(values)  # each worth once per supporter
    limit = sys.get_int_max_str_digits()
    # in-limit worths can sum beyond it, in lowest terms; no surplus sum exceeds its value sum
    for v in (potential, lam, *values):
        if _over_digit_limit(v, limit) and _over_digit_limit(v // math.gcd(v, d), limit):
            raise DigitLimitExceeded(f"a sum of the game's worths exceeds {limit} digits")
    columns = ((tuple(values), d), (tuple(surplus), 1))
    players = getattr(game, "labels", tuple(game.players()))
    reports = tuple(
        IndexReport._from_ints(v, players, c, (potential, d), (lam, d), listing)
        for v, c in zip(variants, columns)
    )
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


def jk_potential_recursive(game: JKGame) -> Fraction:
    """The potential by the averaging recursion over all subgames:
    P(v_S) = (Lambda(v_S) + sum over i in S of P(v_{S without i})) / |S|,
    with P = 0 at the empty coalition. The subgame on S keeps the listed
    vectors supported inside S (the scan decides x from x's entry and its
    predecessors along supp x), so Lambda(v_S) sums w·|supp x| over them.
    Q(S) = |S|!·P(v_S) counts each chain from T up to N once: Q(N) sums
    (|T|-1)!·(n-|T|)!·Lambda(v_T) over T. Summed over T first, each listed
    x adds w·s·K(s), s = |supp x|, with K(s) = sum over t = s..n of
    C(n-s, t-s)·(t-1)!·(n-t)!, the chains from size s up to N. K(s)·s = n!,
    so this is the direct sum; K(s) is summed, not n!/s, to stay a computation.
    """
    from fractions import Fraction

    return Fraction(*_recursive_potential(game))


def _recursive_potential(game: JKGame) -> tuple[int, int]:
    """:func:`jk_potential_recursive` as the numerator and denominator of
    Q(N) / n! in lowest terms, from the listed worth per support size."""
    n, f = game.n, math.factorial
    worth = [0] * (n + 1)  # the listed worth by support size
    for x, w in minimal_critical_vectors(game).pairs():
        worth[n - x.count(0)] += w
    total = 0
    for s in range(1, n + 1):  # each listed x of support size s adds w·s·K(s)
        chains = sum(math.comb(n - s, t - s) * f(t - 1) * f(n - t) for t in range(s, n + 1))
        total += worth[s] * s * chains
    g = math.gcd(total, f(n))
    return total // g, f(n) // g


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
    return _kept(variant_value(game), "player_values")[0][i - 1]


def total_criticality(game: JKGame) -> int:
    """Criticality count summed over all players: the surplus credits'
    total (see :func:`criticality_count`)."""
    return sum(_kept(variant_value(game), "player_values")[0])


def normalized_variant(game: JKGame) -> IndexReport:
    """Surplus variant rescaled to sum to 1; undefined on the constant-0
    game."""
    if game.trivial:
        raise TrivialGame("the constant-0 game has no normalized value")
    return _normalized(variant_value(game), "normalized_variant")
