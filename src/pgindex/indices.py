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

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import RecursionCapExceeded, TrivialGame, UnknownPlayer
from .critical import (
    CoalitionSet,
    MCVSet,
    _listing,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    real_gaining_coalitions,
)
from .games import (
    DEFAULT_CAP,
    JKGame,
    SimpleGame,
    TUGame,
    check_cap,
    decrement,
    subgame,
)

#: Recognized report variants.
VARIANTS = (
    "raw_pgi",
    "normalized_pgi",
    "tu_pgv",
    "potential_value",
    "surplus_variant",
    "normalized_variant",
)

RECURSION_CAP = 20

TU_FAMILIES = {
    "mcc": minimal_critical_coalitions,
    "rgc": real_gaining_coalitions,
}


@dataclass(frozen=True)
class IndexReport:
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
    return IndexReport(
        variant,
        report.players,
        tuple(q / total for q in report.player_values),
        report.potential,
        report.lambda_total,
        report.listing,
    )


def _tally(variant: str, players: tuple, listing, support, credit=None) -> IndexReport:
    """One pass over a listing of (x, w): potential, distributed total (w times
    ``len(support(x))``) and per supporter p the credit ``credit(x, w, p)``, or w."""
    # (j,k) worths are ints: summed as ints, widened once at the end
    values = [0] * len(players)
    potential = lam = 0
    for x, w in listing.pairs():
        positions = support(x)
        potential += w
        lam += w * len(positions)
        for p in positions:
            values[p] += w if credit is None else credit(x, w, p)
    widened = tuple(map(Fraction, values))
    return IndexReport(variant, players, widened, Fraction(potential), Fraction(lam), listing)


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
    return _tally("tu_pgv", tuple(game.labels), _family_listing(game, family), _members)


def _family_listing(game: TUGame, family: str) -> CoalitionSet:
    """The chosen family of coalitions with their worths, in rank order."""
    if family == "mcc":
        return _listing(game)
    if family not in TU_FAMILIES:
        raise ValueError(f"family must be one of {sorted(TU_FAMILIES)}, got {family!r}")
    chosen = TU_FAMILIES[family](game)
    return CoalitionSet.from_pairs(game.n, ((S, game.worth(S)) for S in chosen))


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
    P(v) = (Lambda(v) + sum over players of P(v without that player)) / n,
    anchored at P = 0 for the zero-player game. Memoized over coalitions;
    capped at 20 players, and at ``cap`` subgame table entries: j^|S|
    summed over the coalitions S, which is (j+1)^n."""
    if game.n > RECURSION_CAP:
        raise RecursionCapExceeded(
            f"recursive potential capped at {RECURSION_CAP} players, game has {game.n}"
        )
    check_cap(game.n, game.j + 1, cap, "recursion would build {} subgame table entries")
    memo: dict[frozenset[int], Fraction] = {frozenset(): Fraction(0)}
    for size in range(1, game.n + 1):
        for combo in itertools.combinations(game.players(), size):
            S = frozenset(combo)
            total = lambda_total(subgame(game, combo))
            for i in combo:
                total += memo[S - {i}]
            memo[S] = total / size
    return memo[frozenset(game.players())]


def variant_value(game: JKGame) -> IndexReport:
    """Marginal-surplus variant: each supporter of a minimal critical
    vector is credited with the output drop their own level prevents."""
    return _tally(
        "surplus_variant",
        tuple(game.labels),
        minimal_critical_vectors(game),
        _support,
        lambda x, w, p: w - game.value(decrement(x, p + 1)),
    )


def criticality_count(game: JKGame, i: int) -> int:
    """Number of (vector, threshold) pairs at which player i is critical:
    pairs (x, tau) with x minimal critical, v(x) >= tau, and lowering i's
    level at x dropping the output below tau."""
    if not 1 <= i <= game.n:
        raise UnknownPlayer(f"player {i} is not one of 1..{game.n}")
    mcv = minimal_critical_vectors(game)
    count = 0
    for x, w in mcv.pairs():
        if x[i - 1] == 0:
            continue
        below = game.value(decrement(x, i))
        count += sum(1 for tau in range(1, game.k) if w >= tau > below)
    return count


def total_criticality(game: JKGame) -> int:
    """Criticality count summed over all players."""
    return sum(criticality_count(game, i) for i in game.players())


def normalized_variant(game: JKGame) -> IndexReport:
    """Surplus variant rescaled to sum to 1; undefined on the constant-0
    game."""
    if game.trivial:
        raise TrivialGame("the constant-0 game has no normalized value")
    return _normalized(variant_value(game), "normalized_variant")
