"""Enumeration of the minimal structures behind the indices.

Minimal winning coalitions for simple games, minimal critical and real
gaining coalitions for TU games, and minimal critical vectors for (j,k)
simple games: a profile x is minimal critical when its output strictly
exceeds the output of everything strictly below it. On a monotone table
it is enough to beat the immediate predecessors x with one coordinate
lowered; the full down-set scan survives as a brute-force oracle.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import cached_property

from .errors import (
    LevelOutOfRange,
    NotMinimalCritical,
    OracleCapExceeded,
    ValidationError,
    ZeroLevelPlayer,
)
from .games import (
    Coalition,
    JKGame,
    Profile,
    SimpleGame,
    TUGame,
    _Rational,
    _Record,
    _check_players,
    _coalitions,
    _flagged,
    _halves,
    _lane_view,
    decrement,
    evaluate,
)

#: Fixed ceiling on j ** n for the full down-set oracle.
ORACLE_CAP = 3 ** 9

class MCVSet(_Record):
    """Minimal critical vectors with their output levels, in table order.

    ``from_pairs`` validates its input pairwise; the constructor itself
    trusts it, as the enumerator's output is exact on a checked game.
    """

    vectors: tuple[Profile, ...]
    worths: tuple[int, ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Profile, int]]) -> "MCVSet":
        ordered = sorted((tuple(x), w) for x, w in pairs)
        vectors = tuple(x for x, _ in ordered)
        if len(set(map(len, vectors))) > 1:
            raise ValidationError("minimal critical vectors of different lengths")
        if len(set(vectors)) != len(vectors):
            raise ValidationError("duplicate minimal critical vector")
        for a, (x, wx) in enumerate(ordered):
            if wx <= 0:
                raise ValidationError(
                    f"vector {x} has worth {wx}; minimal critical vectors have positive worth"
                )
            # lexicographic order makes x the only possible lower element
            for y, wy in ordered[a + 1 :]:
                if all(p <= q for p, q in zip(x, y)) and wx >= wy:
                    raise ValidationError(
                        f"{x} <= {y} but worths are {wx} >= {wy}; not an antichain per worth"
                    )
        return cls(vectors, tuple(w for _, w in ordered))

    def pairs(self) -> Iterator[tuple[Profile, int]]:
        return zip(self.vectors, self.worths)

    @cached_property
    def _worth(self) -> dict[Profile, int]:
        return dict(self.pairs())

    def worth_of(self, x: Profile) -> int:
        try:
            return self._worth[tuple(x)]
        except KeyError:
            raise KeyError(x) from None

    def as_dict(self) -> dict[Profile, int]:
        return dict(self._worth)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, x) -> bool:
        return tuple(x) in self._worth


class CoalitionSet(_Record):
    """Coalitions with their worths, ordered by coalition rank; a listing
    keeps the worths as its game's numerators over its denominator."""

    coalitions: tuple[Coalition, ...]
    worths: tuple[Fraction, ...] = _Rational()

    def pairs(self) -> Iterator[tuple[Coalition, Fraction]]:
        return zip(self.coalitions, self.worths)

    def __len__(self) -> int:
        return len(self.coalitions)

    def __contains__(self, S) -> bool:
        return frozenset(S) in self.coalitions


def minimal_winning_coalitions(game: SimpleGame) -> frozenset[Coalition]:
    """Winning coalitions all of whose proper subsets lose."""
    return frozenset(_listing(game).coalitions)


def minimal_critical_coalitions(game: TUGame) -> frozenset[Coalition]:
    """Nonempty coalitions where every member's departure strictly hurts."""
    return frozenset(_listing(game).coalitions)


def real_gaining_coalitions(game: TUGame) -> frozenset[Coalition]:
    """Nonempty coalitions worth strictly more than every proper subset.

    Found on lanes: one pass per player gives each coalition's down-max,
    the largest worth at or below it, and a coalition gains where it beats
    the down-max of each coalition one member short. The literal
    all-proper-subsets scan, :func:`_real_gaining`, is the TU ``--oracle``.
    """
    return frozenset(_listing(game, "rgc").coalitions)


def minimal_critical_vectors(game: JKGame) -> MCVSet:
    """Fast enumeration: beat every immediate predecessor strictly.

    A ``JKGame`` is valid by type (monotone, v(0) = 0), so the scan is
    exact, as any y < x has y <= x - e_p with x_p > 0, so v(y) <=
    v(x - e_p) < v(x). The output is an antichain per worth: if x < y are
    both found, x <= y - e_p for some p, so v(x) <= v(y - e_p) < v(y).
    Worths are positive: v(x) > v(x - e_p) >= v(0) = 0.
    :func:`minimal_critical_vectors_oracle` checks the scan literally. The
    result is cached on the game.
    """
    return _listing(game)


def _listing(game: JKGame | SimpleGame | TUGame, family: str = "mcc") -> MCVSet | CoalitionSet:
    """The minimal structure a game's values credit, with its worths, in
    rank order: minimal critical vectors of a (j,k) game, minimal winning
    coalitions, or for a TU game the minimal critical
    (``family="mcc"``) or real gaining (``"rgc"``) coalitions. Cached on
    the game, one entry per family; ``family`` matters for TU games only.
    A simple game built from g generators, g² ≤ 2^(n+1), lists the
    inclusion-minimal ones (T ⊆ S iff ``T & S == T``) at worth 1, with no
    table: below 2^(n+1) those subset tests cost less than the table's
    lane scan at every n from 10 to 21 (see the README). Every other game
    scans its lane view."""
    if not isinstance(game, TUGame):
        family = "mcc"
    elif family not in ("mcc", "rgc"):
        raise ValueError(f"family must be one of ['mcc', 'rgc'], got {family!r}")
    key = "_listing_" + family
    cached = game.__dict__.get(key)
    if cached is not None:
        return cached
    generators, d = game.__dict__.get("_generators"), getattr(game, "denominator", 1)
    if generators is not None and len(generators) ** 2 <= 2 << game.n:
        ranks = []
        for S in generators:  # ascending, so each proper subset of S is listed before it
            if all(T & S != T for T in ranks):
                ranks.append(S)
        listed = (1,) * len(ranks)
    else:
        ranks = _predecessor_ranks(_lane_view(game), family == "rgc")
        table = game.numerators if isinstance(game, TUGame) else game.levels
        listed = tuple(map(table.__getitem__, ranks))
    if isinstance(game, JKGame):
        high, low = _halves(game.n, game.j, lambda x, first: x)
        parts = map(divmod, ranks, itertools.repeat(len(low)))
        listing = MCVSet(tuple(high[h] + low[q] for h, q in parts), listed)
    else:
        listing = CoalitionSet._from_ints(_coalitions(game.n, ranks), (listed, d))
    # for indices._tally and the coalition texts of the CLI; records keep a __dict__
    listing.__dict__.update(_ranks=ranks, _n=game.n)
    game.__dict__[key] = listing
    return listing


def _real_gaining(n: int, worths) -> list[int]:
    """Ranks of the coalitions worth more than every proper subset, by the
    literal scan of all of them, kept apart from :func:`_predecessor_ranks`
    as the TU oracle."""
    found = []
    for mask in range(1, 1 << n):
        w = worths[mask]
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            if worths[sub] >= w:
                break
        else:
            found.append(mask)
    return found


def _predecessor_ranks(view, gaining: bool = False) -> list[int]:
    """Ranks in table order of every profile but the origin whose entry
    exceeds each immediate predecessor's, on the lane view of any integer
    table (:func:`games._rank_lanes`); with ``gaining`` (j = 2), each
    predecessor's down-max instead, which leaves the real gaining
    coalitions.

    A b-bit lane biased to key + 2^(b-1) - 1 takes a predecessor off
    without a borrow and keeps its top bit exactly where the key is
    larger. Where x_p = 0 the predecessor is 0, which only key 0, the
    minimum, fails to beat."""
    packed, width, guard, lanes = view
    bits = 8 * width
    below = _down_max(packed, guard, bits, lanes) if gaining else packed
    biased = (packed | guard) - (guard >> (bits - 1))
    hits = guard ^ (1 << (bits - 1))  # the origin has no predecessor to beat
    for shift, mask in lanes:
        hits &= biased - ((below << shift) & mask)
    return _flagged(hits, width)


def _down_max(packed: int, guard: int, bits: int, lanes) -> int:
    """The down-max on a 0/1 table, each lane the largest key at or below it:
    per axis a guard bit keeps the lanes at least their predecessor's key."""
    for shift, mask in lanes:
        pred = (packed << shift) & mask
        sel = ((((packed | guard) - pred) & guard) >> (bits - 1)) * ((1 << bits) - 1)
        packed = (packed & sel) | (pred & ~sel)
    return packed


def minimal_critical_vectors_oracle(game: JKGame) -> MCVSet:
    """Reference enumeration scanning the entire down-set of every profile."""
    if game.j ** game.n > ORACLE_CAP:
        raise OracleCapExceeded(
            f"oracle is capped at {ORACLE_CAP} profiles, table has {game.j ** game.n}"
        )
    pairs = []
    for x in game.profiles():
        if not any(x):
            continue
        level = game.value(x)
        dominated = all(
            game.value(y) < level
            for y in itertools.product(*(range(a + 1) for a in x))
            if y != x
        )
        if dominated:
            pairs.append((x, level))
    return MCVSet.from_pairs(pairs)


def minimal_critical_below(game: JKGame, x: Profile) -> Profile:
    """A minimal critical vector y <= x with the same output as x.

    Lowers each coordinate in turn, one level at a time, while the output
    stays unchanged. By monotonicity a coordinate that cannot descend never
    can again once others are lower, so one pass reaches a minimal critical
    vector. Requires a valid profile with v(x) > 0.
    """
    level = evaluate(game, x)
    x = tuple(x)
    if level == 0:
        raise ValueError(f"profile {x} has output 0; no critical vector below it")
    for p in range(1, game.n + 1):
        while x[p - 1] and game.value(decrement(x, p)) == level:
            x = decrement(x, p)
    return x


def is_critical_for(game: JKGame, x: Profile, i: int, tau: int) -> bool:
    """Whether player i at minimal critical vector x is critical for
    reaching output level tau: v(x) >= tau but v(x with i lowered) < tau."""
    x = tuple(x)
    _check_players((i,), game.n)
    if not 1 <= tau <= game.k - 1:
        raise LevelOutOfRange(f"tau={tau} outside 1..{game.k - 1}")
    if x not in minimal_critical_vectors(game):
        raise NotMinimalCritical(f"{x} is not a minimal critical vector")
    if x[i - 1] == 0:
        raise ZeroLevelPlayer(f"player {i} is at level 0 in {x}")
    return game.value(x) >= tau and game.value(decrement(x, i)) < tau
