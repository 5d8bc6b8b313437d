"""Composition and structure: pointwise maximum, mergeability, player
permutations, null players, single-vector components, and an executable
check suite for the axioms characterizing the normalized surplus value.

Two games on the same (n, j, k) shape are mergeable when no minimal
critical vector is shared, every dominated cross-pair has strictly
smaller worth, and every dominating cross-pair strictly larger. For a
mergeable pair the minimal critical vectors of the pointwise maximum are
exactly the disjoint union of both sets, and criticality counts add up.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import (
    DimensionMismatch,
    LevelOutOfRange,
    NotAPermutation,
    NotMergeable,
    TrivialGame,
    ValidationError,
)
from .critical import minimal_critical_vectors
from .games import (
    DEFAULT_CAP,
    JKGame,
    _kept,
    _Rational,
    _Record,
    _check_players,
    _lane_view,
    _subgame_jk,
    _trusted,
    check_cap,
)
from .indices import normalized_variant, total_criticality, variant_value

CLAUSE_SHARED = "C1_shared_mcv"
CLAUSE_LE = "C2_le_not_less"
CLAUSE_GE = "C3_ge_not_greater"


MergeViolation = namedtuple("MergeViolation", "x y clause")  # two profiles and a clause


class MergeReport(_Record):
    """Outcome of the mergeability test with every clause violation."""

    violations: tuple[MergeViolation, ...]

    @property
    def mergeable(self) -> bool:
        return not self.violations


class _Witnesses(_Rational):
    """A failing check's witnesses, kept as tuples of ints and (p, d) pairs."""

    def _fractions(self, record):
        from fractions import Fraction  # here, as only a reader of the field needs it

        rows = record.__dict__["_ints"][self.attrname]
        return tuple(tuple(c if type(c) is int else Fraction(*c) for c in row) for row in rows)


class AxiomResult(_Record):
    axiom: str
    status: str  # "pass" | "fail" | "vacuous" | "skipped"
    detail: str
    witnesses: tuple = _Witnesses()

    def __init__(self, axiom, status, detail, witnesses=()):
        super().__init__(axiom, status, detail, witnesses)


class AxiomReport(_Record):
    results: tuple[AxiomResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.status != "fail" for r in self.results)


def _same_shape(v: JKGame, w: JKGame) -> None:
    if (v.n, v.j, v.k) != (w.n, w.j, w.k):
        raise DimensionMismatch(
            f"games have shapes ({v.n},{v.j},{v.k}) and ({w.n},{w.j},{w.k})"
        )


def oplus(v: JKGame, w: JKGame) -> JKGame:
    """Pointwise maximum of two games on the same shape."""
    _same_shape(v, w)
    levels = tuple(map(max, v.levels, w.levels))
    # the pointwise maximum of two valid tables: monotone, origin at 0
    return _trusted(JKGame, v.n, v.j, v.k, levels, labels=v.labels)


def is_mergeable(v: JKGame, w: JKGame) -> MergeReport:
    """Check all three mergeability clauses over every cross-pair of
    minimal critical vectors, recording every violation. A shared vector
    is reported under its own clause tag on top of the order clauses it
    necessarily breaks."""
    _same_shape(v, w)
    mcv_v = minimal_critical_vectors(v)
    mcv_w = minimal_critical_vectors(w)
    violations = []
    for x, wx in mcv_v.pairs():
        for y, wy in mcv_w.pairs():
            if x == y:
                violations.append(MergeViolation(x, y, CLAUSE_SHARED))
            if all(a <= b for a, b in zip(x, y)) and not wx < wy:
                violations.append(MergeViolation(x, y, CLAUSE_LE))
            if all(a >= b for a, b in zip(x, y)) and not wx > wy:
                violations.append(MergeViolation(x, y, CLAUSE_GE))
    violations.sort()
    return MergeReport(tuple(violations))


def mcv_union_check(v: JKGame, w: JKGame) -> bool:
    """Verify the merge lemma on a mergeable pair: the minimal critical
    vectors of v+w are the disjoint union of both sets, worths included."""
    report = is_mergeable(v, w)
    if not report.mergeable:
        raise NotMergeable(
            f"{len(report.violations)} mergeability violations; union lemma needs a mergeable pair"
        )
    return _union_holds(v, w)


def _union_holds(v: JKGame, w: JKGame) -> bool:
    """The union lemma on a pair already known to be mergeable. Listings
    are in table order, which is sorted profile order; a vector shared by
    v and w appears twice in the union, so the lengths differ."""
    union = sorted([*minimal_critical_vectors(v).pairs(), *minimal_critical_vectors(w).pairs()])
    return union == list(minimal_critical_vectors(oplus(v, w)).pairs())


def permute(v: JKGame, pi: Sequence[int]) -> JKGame:
    """Relabel players: the new game reads coordinate pi(i) of its input
    where the old game read coordinate i. ``pi[i-1]`` is pi(i), 1-based."""
    pi = tuple(pi)
    if sorted(pi) != list(range(1, v.n + 1)):
        raise NotAPermutation(f"{pi} is not a permutation of 1..{v.n}")
    # the subgame keeping every player in the order pi^-1 reads old
    # coordinate i at position pi(i), table rows and weights alike
    inverse = sorted(v.players(), key=lambda p: pi[p - 1])
    sub = _subgame_jk(v, inverse)
    return _trusted(JKGame, sub.n, sub.j, sub.k, sub.levels, sub.provenance, v.labels)  # relabelled


def is_null_player(v: JKGame, i: int) -> bool:
    """Whether the output never depends on player i's level."""
    _check_players((i,), v.n)
    return i in _null_players(v)


def _null_players(v: JKGame) -> list[int]:
    """The players along whose axis each lane of the game's lane view
    equals its predecessor, so that raising their level changes nothing."""
    packed, _, _, lanes = _lane_view(v)
    return [i for i, (s, mask) in enumerate(lanes, 1) if (packed << s) & mask == packed & mask]


def single_mcv_game(x: Sequence[int], worth: int, j: int, k: int) -> JKGame:
    """The smallest monotone game whose only minimal critical vector is x,
    at the given worth: everything at or above x maps there, the rest to 0."""
    x = tuple(x)
    if any(not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < j for a in x):
        raise LevelOutOfRange(f"profile {x} has entries that are not levels 0..{j - 1}")
    if not any(x):
        raise ValidationError("the zero profile cannot be a minimal critical vector")
    if not isinstance(worth, int) or isinstance(worth, bool) or not 1 <= worth <= k - 1:
        raise LevelOutOfRange(f"worth {worth!r} is not a level 1..{k - 1}")
    check_cap(len(x), j, DEFAULT_CAP, "table would need {} entries")
    # the up-set of x, last axis first: below x's level a block is all 0
    levels = [worth]
    for level in reversed(x):
        levels = [0] * (len(levels) * level) + levels * (j - level)
    # an up-set of x != 0 at one worth in 1..k-1: monotone, origin at 0
    return _trusted(JKGame, len(x), j, k, tuple(levels))


def decompose(v: JKGame) -> tuple[JKGame, ...]:
    """Single-vector components of v; their pointwise maximum rebuilds v."""
    mcv = minimal_critical_vectors(v)
    return tuple(single_mcv_game(x, w, v.j, v.k) for x, w in mcv.pairs())


def axiom_report(v: JKGame, w: JKGame | None = None) -> AxiomReport:
    """Evaluate the axioms on the normalized surplus value of v.

    A1: null players get 0 (vacuous without null players). A2: the values
    sum to 1. A3: with a single minimal critical vector, every supporter
    gets the same share (vacuous otherwise). A4: given a second game
    mergeable with v, the merged value is the criticality-weighted average
    of both values; requesting it on a non-mergeable pair raises. A1-A3
    hold by definition, so a pass checks the code, not the game: a null
    player supports no minimal critical vector, the shares are numerators
    over their own sum, and each supporter of a single vector gets its worth.
    """
    if v.trivial:
        raise TrivialGame("axioms are stated for games with at least one critical vector")
    if w is not None and w.trivial:
        raise TrivialGame("the second game is constant-0; merging adds nothing")
    values, d = _kept(normalized_variant(v), "player_values")  # d: the values' sum
    results = [_axiom_null(v, values, d), _axiom_efficiency(values, d), _axiom_shares(v, values, d)]
    if w is None:
        results.append(AxiomResult("A4", "skipped", "no second game given"))
    else:
        results.append(_axiom_merge(v, w))
    return AxiomReport(tuple(results))


def _axiom_null(v: JKGame, values, d: int) -> AxiomResult:
    nulls = _null_players(v)
    if not nulls:
        return AxiomResult("A1", "vacuous", "no null players")
    bad = tuple((i, (values[i - 1], d)) for i in nulls if values[i - 1] != 0)
    if bad:
        return AxiomResult._from_ints("A1", "fail", "null players with nonzero value", bad)
    return AxiomResult("A1", "pass", f"null players {nulls} all get 0")


def _axiom_efficiency(values, d: int) -> AxiomResult:
    total = sum(values)
    if total != d:  # never, on the normalized shares (values over their sum)
        from fractions import Fraction  # here, as no normalized value gets here

        q = Fraction(total, d)
        return AxiomResult("A2", "fail", f"values sum to {q}, not 1", (q,))
    return AxiomResult("A2", "pass", "values sum to 1")


def _axiom_shares(v: JKGame, values, d: int) -> AxiomResult:
    mcv = minimal_critical_vectors(v)
    if len(mcv) != 1:
        return AxiomResult("A3", "vacuous", f"{len(mcv)} minimal critical vectors")
    x = mcv.vectors[0]
    support = [i for i in v.players() if x[i - 1]]
    if len({values[i - 1] for i in support}) != 1:  # over one d: equal numerators
        detail = "supporters of the single vector get unequal shares"
        bad = tuple((i, (values[i - 1], d)) for i in support)
        return AxiomResult._from_ints("A3", "fail", detail, bad)
    return AxiomResult("A3", "pass", f"all {len(support)} supporters share equally")


def _axiom_merge(v: JKGame, w: JKGame) -> AxiomResult:
    """A4: the normalized surplus value of v⊕w against the average of v's
    and w's weighted by total criticality, for each player the surplus
    credits s over the credits' totals c: (s_v + s_w)/(c_v + c_w), each
    against the merged share m/d by cross-multiplying.

    By the union lemma MCV(v⊕w) = MCV(v) ⊎ MCV(w), worths kept. So the
    potential-based value adds up under ⊕: each vector credits its worth to
    each supporter, in v⊕w as in its own game. The surplus variant adds up
    iff no minimal critical vector of either game has an immediate
    predecessor that the other game lifts: at x in MCV(v) with x_p > 0, p's
    credit in v⊕w is v(x) - max(v(x - e_p), w(x - e_p)), at most the credit
    v(x) - v(x - e_p) in v, and equal iff w(x - e_p) <= v(x - e_p); likewise
    with v and w swapped. Credits only fall, so the sums add up iff none
    falls; then the totals add up too, and A4 holds.
    """
    report = is_mergeable(v, w)
    if not report.mergeable:
        raise NotMergeable(
            f"A4 requested on a non-mergeable pair ({len(report.violations)} violations)"
        )
    cv, cw = total_criticality(v), total_criticality(w)
    merged, d = _kept(normalized_variant(oplus(v, w)), "player_values")
    sv, sw = (_kept(variant_value(g), "player_values")[0] for g in (v, w))
    rows, c = zip(v.players(), merged, sv, sw), cv + cw
    bad = tuple((i, (m, d), (a + b, c)) for i, m, a, b in rows if m * c != (a + b) * d)
    if bad:
        detail = "merged value is not the criticality-weighted average"
        return AxiomResult._from_ints("A4", "fail", detail, bad)
    return AxiomResult("A4", "pass", f"weighted average holds with weights {cv} and {cw}")
