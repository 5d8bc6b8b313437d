import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgindex.cli as cli
import pgindex.indices as indices
from pgindex import (
    TrivialGame,
    axiom_report,
    compare_pgv_vs_jk,
    criticality_count,
    dump_game,
    embed_2k_as_tu,
    embed_simple,
    evaluate,
    jk_potential,
    jk_potential_recursive,
    lambda_total,
    make_tu_game,
    minimal_critical_vectors_oracle,
    normalized_variant,
    pgi_normalized,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    remove_player,
    simple_game_from_generators,
    single_mcv_game,
    subgame,
    total_criticality,
    tu_potential,
    variant_value,
    zero_game,
)
from pgindex.critical import _listing
from pgindex.errors import CapExceeded, DigitLimitExceeded, RecursionCapExceeded, UnknownPlayer
from pgindex.games import JKGame, SimpleGame, decrement, profile_index
from pgindex.indices import IndexReport, _tally

from gamegen import random_monotone_jk, random_monotone_tu, random_tu


class TestExampleValues:
    def test_potential_value(self, example33):
        report = public_good_value_jk(example33)
        assert report.player_values == (6, 5, 4)
        assert report.potential == 6
        assert report.lambda_total == 15

    def test_variant(self, example33):
        assert variant_value(example33).player_values == (5, 4, 3)

    def test_normalized_variant(self, example33):
        assert normalized_variant(example33).player_values == (
            Fraction(5, 12),
            Fraction(1, 3),
            Fraction(1, 4),
        )

    def test_potential_drop_after_removal(self, example33):
        # the player-3 value equals the potential drop when 3 leaves
        assert jk_potential(example33) - jk_potential(remove_player(example33, 3)) == 4


class TestPGI:
    def test_quota_example(self, quota_simple):
        assert pgi_raw(quota_simple).player_values == (1, 1, 1)
        assert pgi_normalized(quota_simple).player_values == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    def test_trivial_normalization_refused(self):
        game = simple_game_from_generators(2, [])
        assert pgi_raw(game).player_values == (0, 0)
        with pytest.raises(TrivialGame):
            pgi_normalized(game)


class TestPGV:
    def test_family_choice(self):
        worths = {
            frozenset(): Fraction(0),
            frozenset({1}): Fraction(3),
            frozenset({2}): Fraction(0),
            frozenset({3}): Fraction(0),
            frozenset({1, 2}): Fraction(3, 2),
            frozenset({1, 3}): Fraction(3, 2),
            frozenset({2, 3}): Fraction(3, 2),
            frozenset({1, 2, 3}): Fraction(13, 5),
        }
        game = make_tu_game(3, worths)
        mcc = pgv_tu(game, family="mcc")
        rgc = pgv_tu(game, family="rgc")
        assert mcc.player_values == (
            Fraction(3) + Fraction(13, 5),
            Fraction(3, 2) + Fraction(13, 5),
            Fraction(3, 2) + Fraction(13, 5),
        )
        assert rgc.player_values == (Fraction(3), Fraction(3, 2), Fraction(3, 2))

    def test_unknown_family(self, example33):
        tu = make_tu_game(1, {frozenset(): 0, frozenset({1}): 1})
        with pytest.raises(ValueError, match=r"must be one of \['mcc', 'rgc'\], got 'nope'"):
            pgv_tu(tu, family="nope")

    def test_simple_embedding_matches_pgi(self, quota_simple):
        tu = embed_2k_as_tu(embed_simple(quota_simple))
        assert pgv_tu(tu).player_values == pgi_raw(quota_simple).player_values

    def test_potential_is_family_total(self):
        rng = random.Random(3)
        for _ in range(10):
            game = random_monotone_tu(3, rng)
            report = pgv_tu(game)
            assert report.potential == tu_potential(game)


class TestDigitLimit:
    def test_summed_worths_beyond_the_limit(self, digit_limit_640):
        # each worth has 640 digits; player 1's value, 5·10^639 + (10^640 - 1), has 641
        half, top = 5 * 10 ** 639, 10 ** 640 - 1
        game = make_tu_game(2, {(): 0, (1,): half, (2,): half, (1, 2): top})
        with pytest.raises(DigitLimitExceeded) as info:
            pgv_tu(game)
        assert str(info.value) == "a sum of the game's worths exceeds 640 digits"


class TestPotentialIdentity:
    def test_value_is_potential_difference(self):
        rng = random.Random(17)
        for n, j, k in ((2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2)):
            for _ in range(15):
                game = random_monotone_jk(n, j, k, rng)
                psi = public_good_value_jk(game).player_values
                P = jk_potential(game)
                for pos, i in enumerate(game.players()):
                    assert psi[pos] == P - jk_potential(remove_player(game, i))

    def test_recursive_agrees(self):
        rng = random.Random(29)
        for _ in range(20):
            game = random_monotone_jk(3, 3, 3, rng)
            assert jk_potential_recursive(game) == jk_potential(game)

    def test_recursion_cap(self):
        with pytest.raises(RecursionCapExceeded):
            jk_potential_recursive(zero_game(21, 2, 2))

    def test_recursion_respects_table_cap(self, example33):
        # the recursion holds 2^n = 8 coalition totals; for base 2, check_cap's
        # guard refuses every n >= cap.bit_length() before sizing, naming n
        assert jk_potential_recursive(example33, cap=8) == 6
        with pytest.raises(CapExceeded, match="3 players are beyond the cap 7"):
            jk_potential_recursive(example33, cap=7)
        with pytest.raises(RecursionCapExceeded):
            jk_potential_recursive(zero_game(21, 2, 2), cap=1)

    def test_lambda_decomposes_over_supports(self, example33):
        # Lambda counts each MCV worth once per supporter
        assert lambda_total(example33) == 15
        assert sum(public_good_value_jk(example33).player_values) == 15


def _per_subgame_potential(game):
    """The averaging recursion with every subgame built and its distributed
    total read off its own listing: the naive reference route."""
    memo = {frozenset(): Fraction(0)}
    for size in range(1, game.n + 1):
        for S in map(frozenset, itertools.combinations(game.players(), size)):
            memo[S] = (lambda_total(subgame(game, S)) + sum(memo[S - {i}] for i in S)) / size
    return memo[frozenset(game.players())]


class TestRecursionRoutes:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(
            ((0, 2, 2), (1, 4, 3), (2, 3, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 2))
        ),
        simple_n=st.integers(1, 6),
        embedded=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_subset_sums_match_subgames_and_direct(self, shape, simple_n, embedded, seed):
        # random monotone (j,k) games, or (2,2) embeddings of random simple games
        rng = random.Random(seed)
        if embedded:
            players = range(1, simple_n + 1)
            gens = [rng.sample(players, rng.randint(1, simple_n)) for _ in range(rng.randint(0, 4))]
            game = embed_simple(simple_game_from_generators(simple_n, gens))
        else:
            game = random_monotone_jk(*shape, rng)
        assert jk_potential_recursive(game) == _per_subgame_potential(game) == jk_potential(game)


class TestCriticalityCounts:
    def test_example_counts(self, example33):
        assert [criticality_count(example33, i) for i in (1, 2, 3)] == [5, 4, 3]
        assert total_criticality(example33) == 12

    def test_counts_equal_variant(self):
        # criticality_count reads the variant report, so the reference side
        # counts (x, tau) pairs literally, over the down-set oracle's vectors
        rng = random.Random(41)
        for shape in [(3, 3, 3)] * 20 + [(2, 4, 4), (3, 2, 4), (4, 3, 2)] * 5:
            game = random_monotone_jk(*shape, rng)
            literal = [
                sum(
                    1
                    for x, w in minimal_critical_vectors_oracle(game).pairs()
                    if x[i - 1]
                    for tau in range(1, game.k)
                    if w >= tau > evaluate(game, decrement(x, i))
                )
                for i in game.players()
            ]
            assert [criticality_count(game, i) for i in game.players()] == literal
            assert list(variant_value(game).player_values) == literal
            assert total_criticality(game) == sum(literal)

    def test_unknown_player(self, example33):
        with pytest.raises(UnknownPlayer):
            criticality_count(example33, 0)

    def test_trivial_variant_normalization_refused(self):
        with pytest.raises(TrivialGame):
            normalized_variant(zero_game(2, 3, 3))


# ---------------------------------------------------------------------------
# the value pass against the per-listing loop it replaced


def _members(coalition) -> list[int]:
    return [i - 1 for i in coalition]


def _support(x) -> list[int]:
    return [p for p, level in enumerate(x) if level]


def _reference_tally(variant, players, listing, support, surplus_of=None, d=1) -> IndexReport:
    """One report from a loop over a listing of (x, w): potential, distributed
    total (w times ``len(support(x))``) and per supporter p the credit w, or,
    given the game ``surplus_of``, the surplus w - v(x - e_p) read from its
    table at x's rank; worths summed as the integers w·d, then divided by d."""
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
    return IndexReport(variant, players, widened, Fraction(potential, d), Fraction(lam, d), listing)


def _reference_reports(game, family: str = "mcc") -> tuple[IndexReport, ...]:
    """The reports of a game and family, each from its own loop."""
    listing = _listing(game, family)
    if isinstance(game, JKGame):
        labels = game.labels
        return (
            _reference_tally("potential_value", labels, listing, _support),
            _reference_tally("surplus_variant", labels, listing, _support, game),
        )
    if isinstance(game, SimpleGame):
        return (_reference_tally("raw_pgi", tuple(game.players()), listing, _members),)
    return (_reference_tally("tu_pgv", game.labels, listing, _members, d=game.denominator),)


def _draw(kind: str, n: int, rng: random.Random):
    if kind == "simple":
        count = rng.randrange(4) if n else 0
        generators = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(count)]
        return simple_game_from_generators(n, generators)
    if kind == "jk":
        j, k = rng.randint(2, 4), rng.randint(2, 4)
        game = random_monotone_jk(n, j, k, rng)
    else:
        draw = random_monotone_tu if kind == "tu_monotone" else random_tu
        game = draw(n, rng, denominator=rng.choice((1, 2, 6, 35)))
    # a removed player leaves labels other than 1..n
    return remove_player(game, rng.randint(1, n)) if n > 1 and rng.random() < 0.3 else game


class TestValuePass:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("simple", "tu_monotone", "tu", "jk")),
        n=st.integers(0, 5),
        family=st.sampled_from(("mcc", "rgc")),
        seed=st.integers(0, 10**6),
    )
    def test_reports_match_the_reference_loop(self, kind, n, family, seed):
        game = _draw(kind, n, random.Random(seed))
        reference = _reference_reports(game, family)
        reports = _tally(game, family)
        # every field, Fraction type included
        assert reports == reference and repr(reports) == repr(reference)
        values = reports[0]
        if isinstance(game, JKGame):
            assert (public_good_value_jk(game), variant_value(game)) == reports
            assert (jk_potential(game), lambda_total(game)) == (values.potential, values.lambda_total)
            counts = [criticality_count(game, i) for i in game.players()]
            assert counts == list(reports[1].player_values)
            assert total_criticality(game) == sum(counts)
        elif isinstance(game, SimpleGame):
            assert pgi_raw(game) is values
        else:
            assert pgv_tu(game, family) is values
            assert tu_potential(game) == _reference_reports(game)[0].potential

    def test_listing_keeps_fields_and_ranks_apart(self, example33):
        reports = _tally(example33)
        listing = reports[0].listing
        fresh = type(listing)(*listing._values())
        assert (listing, hash(listing), repr(listing)) == (fresh, hash(fresh), repr(fresh))
        assert listing.__dict__["_reports"] is reports
        assert [profile_index(x, 3) for x in listing.vectors] == listing.__dict__["_ranks"]


class TestOnePassPerGame:
    """The value pass runs once per game and family; every later report,
    potential and criticality count reads the reports kept on the listing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(game, family, reports) per call of the pass; kept, so that the
        games stay alive and their ids apart."""
        calls, tally = [], indices._tally

        def counting(game, family="mcc"):
            reports = tally(game, family)
            calls.append((game, family, reports))
            return reports

        monkeypatch.setattr(indices, "_tally", counting)
        return calls

    @staticmethod
    def passes(calls) -> int:
        """The games and families behind ``calls``, once each is checked to
        have been given one report tuple, the same object every time."""
        given = {}
        for game, family, reports in calls:
            given.setdefault((id(game), family), set()).add(id(reports))
        assert all(len(ids) == 1 for ids in given.values()), "a game's pass ran twice"
        return len(given)

    @pytest.mark.parametrize("fmt", ("table", "machine"))
    @pytest.mark.parametrize("kind", ("tu", "jk", "simple"))
    def test_analyze(self, calls, kind, fmt, tmp_path, capsys):
        game = {
            "tu": random_monotone_tu(4, random.Random(3)),
            "jk": random_monotone_jk(3, 3, 3, random.Random(3)),
            "simple": simple_game_from_generators(4, [{1, 2}, {3, 4}]),
        }[kind]
        path = tmp_path / "g.json"
        dump_game(game, path)
        assert cli.main(["analyze", "--format", fmt, "--oracle", str(path)]) == 0
        capsys.readouterr()
        assert calls and self.passes(calls) == 1

    def test_criticality_counts(self, calls, example33):
        counts = [criticality_count(example33, i) for i in example33.players()]
        assert total_criticality(example33) == sum(counts) == 12
        assert len(calls) == 4 and self.passes(calls) == 1

    def test_two_game_axioms(self, calls):
        v = single_mcv_game((2, 0), 1, 3, 3)
        w = single_mcv_game((0, 2), 2, 3, 3)
        axiom_report(v, w)
        assert self.passes(calls) == 3  # v, w and v⊕w
        assert {id(game) for game, _, _ in calls} >= {id(v), id(w)}

    def test_compare_pgv_vs_jk(self, calls, example33):
        compare_pgv_vs_jk(example33)
        assert self.passes(calls) == 2  # the source game and its average TU game
