"""Cross-route and algebraic properties beyond the per-module unit tests."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgindex import (
    average_game,
    average_worth_oracle,
    embed_2k_as_tu,
    embed_simple,
    evaluate,
    extract_simple,
    is_null_player,
    jk_potential,
    jk_potential_recursive,
    loads_game,
    make_simple_game,
    make_table_game,
    make_weighted_game,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    minimal_critical_vectors_oracle,
    minimal_winning_coalitions,
    oplus,
    permute,
    pgi_raw,
    public_good_value_jk,
    rational_str,
    remove_player,
    simple_game_from_generators,
    subgame,
    variant_value,
)
from pgindex.errors import MonotonicityViolation
from pgindex.gamefile import parse_rational
from pgindex.games import all_coalitions, all_profiles, coalition_of_profile

from gamegen import enumerate_monotone_jk, random_monotone_jk, random_monotone_tu, random_tu


class TestWeightedAgainstTable:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 9), min_size=1, max_size=3),
        raw_thresholds=st.sets(st.integers(1, 25), min_size=1, max_size=2),
        j=st.integers(2, 3),
    )
    def test_levels_match_independent_computation(self, weights, raw_thresholds, j):
        thresholds = sorted(raw_thresholds)
        n, k = len(weights), len(thresholds) + 1
        game = make_weighted_game(weights, thresholds, j, k)
        for x in all_profiles(n, j):
            s = sum(w * a for w, a in zip(weights, x))
            expected = sum(1 for t in thresholds if s >= t)
            assert evaluate(game, x) == expected

    def test_weighted_table_roundtrip(self, example33):
        rebuilt = make_table_game(3, 3, 3, list(example33.levels))
        assert rebuilt.levels == example33.levels


class TestEmbeddingCorrespondence:
    def test_extract_embed_identity_exhaustive(self):
        for n in (1, 2, 3, 4):
            for game in enumerate_monotone_jk(n, 2, 2):
                simple = extract_simple(game)
                assert embed_simple(simple).levels == game.levels
                assert extract_simple(embed_simple(simple)) == simple

    @pytest.mark.parametrize("k", (2, 3))
    def test_mcv_images_are_mcc_of_tu_embedding(self, k):
        for n in (1, 2, 3, 4):
            for game in enumerate_monotone_jk(n, 2, k):
                images = frozenset(
                    coalition_of_profile(x)
                    for x in minimal_critical_vectors(game).vectors
                )
                assert images == minimal_critical_coalitions(embed_2k_as_tu(game))

    def test_mcv_images_are_mwc_when_binary(self):
        for n in (1, 2, 3, 4):
            for game in enumerate_monotone_jk(n, 2, 2):
                images = frozenset(
                    coalition_of_profile(x)
                    for x in minimal_critical_vectors(game).vectors
                )
                assert images == minimal_winning_coalitions(extract_simple(game))

    def test_k2_value_equals_raw_index(self):
        for n in (1, 2, 3):
            for game in enumerate_monotone_jk(n, 2, 2):
                value = public_good_value_jk(game).player_values
                assert value == variant_value(game).player_values
                assert value == pgi_raw(extract_simple(game)).player_values


class TestMonotonicityCheckEquivalence:
    # shapes where every origin-anchored table fits in a quick exhaustive walk
    SHAPES = ((1, 3, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 2, 3), (2, 3, 3))

    @staticmethod
    def _brute_force_monotone(n, j, levels):
        profiles = list(all_profiles(n, j))
        for a, x in enumerate(profiles):
            for b, y in enumerate(profiles):
                if all(p <= q for p, q in zip(x, y)) and levels[a] > levels[b]:
                    return False
        return True

    @staticmethod
    def _constructor_accepts(n, j, k, levels):
        try:
            make_table_game(n, j, k, levels)
        except MonotonicityViolation:
            return False
        return True

    @pytest.mark.parametrize("n,j,k", SHAPES)
    def test_exhaustive(self, n, j, k):
        size = j**n
        for tail in product(range(k), repeat=size - 1):
            levels = (0, *tail)
            assert self._constructor_accepts(n, j, k, levels) == self._brute_force_monotone(
                n, j, levels
            )

    def test_randomized_33(self):
        rng = random.Random(97)
        for _ in range(60):
            base = list(random_monotone_jk(3, 3, 3, rng).levels)
            base[rng.randrange(1, len(base))] = rng.randrange(3)
            assert self._constructor_accepts(3, 3, 3, base) == self._brute_force_monotone(
                3, 3, base
            )


class TestSubgameComposition:
    def test_jk_nested_subgames(self):
        rng = random.Random(53)
        for _ in range(10):
            game = random_monotone_jk(4, 2, 3, rng)
            for size_s in (2, 3, 4):
                for S in combinations(range(1, 5), size_s):
                    inner = subgame(game, S)
                    for size_t in range(1, size_s + 1):
                        for T in combinations(S, size_t):
                            positions = tuple(sorted(S).index(t) + 1 for t in T)
                            assert subgame(inner, positions) == subgame(game, T)
                            assert subgame(inner, positions).labels == subgame(game, T).labels

    def test_tu_nested_subgames(self):
        rng = random.Random(59)
        for _ in range(10):
            game = random_monotone_tu(4, rng)
            S = (1, 3, 4)
            inner = subgame(game, S)
            assert inner.labels == (1, 3, 4)
            T_positions = (1, 3)  # players 1 and 4 inside the subgame
            assert subgame(inner, T_positions) == subgame(game, (1, 4))


class TestVectorBelowLemma:
    def test_every_profile_every_shape(self):
        from pgindex import minimal_critical_below

        rng = random.Random(61)
        for n, j, k in ((2, 3, 3), (3, 2, 3), (3, 3, 2)):
            for _ in range(20):
                game = random_monotone_jk(n, j, k, rng)
                mcv = minimal_critical_vectors(game)
                for x in game.profiles():
                    w = evaluate(game, x)
                    if w == 0:
                        continue
                    below = minimal_critical_below(game, x)
                    assert below in mcv
                    assert all(a <= b for a, b in zip(below, x))
                    assert evaluate(game, below) == w


class TestOplusAlgebra:
    def test_associative_commutative_idempotent(self):
        rng = random.Random(67)
        for _ in range(20):
            u = random_monotone_jk(2, 3, 3, rng)
            v = random_monotone_jk(2, 3, 3, rng)
            w = random_monotone_jk(2, 3, 3, rng)
            assert oplus(oplus(u, v), w).levels == oplus(u, oplus(v, w)).levels
            assert oplus(u, v).levels == oplus(v, u).levels
            assert oplus(u, u).levels == u.levels


class TestNullAndPermutation:
    def test_null_players_absent_from_mcv_support(self):
        rng = random.Random(71)
        for _ in range(20):
            flat = random_monotone_jk(2, 3, 3, rng)
            # graft a dead middle coordinate onto a two-player game
            levels = [
                evaluate(flat, (x[0], x[2])) for x in all_profiles(3, 3)
            ]
            game = make_table_game(3, 3, 3, levels)
            assert is_null_player(game, 2)
            for x in minimal_critical_vectors(game).vectors:
                assert x[1] == 0

    def test_mcv_permutation_equivariance(self, example33):
        rng = random.Random(73)
        games = [example33] + [random_monotone_jk(3, 3, 3, rng) for _ in range(10)]
        for game in games:
            base = minimal_critical_vectors(game)
            for pi in ((2, 1, 3), (3, 1, 2), (3, 2, 1)):
                moved = minimal_critical_vectors(permute(game, pi))
                expected = {}
                for x, worth in base.pairs():
                    y = [0] * 3
                    for pos in range(3):
                        y[pi[pos] - 1] = x[pos]
                    expected[tuple(y)] = worth
                assert moved.as_dict() == expected

    def test_report_permutation_equivariance(self):
        rng = random.Random(79)
        for _ in range(10):
            game = random_monotone_jk(3, 2, 3, rng)
            base = variant_value(game).player_values
            pi = (2, 3, 1)
            moved = variant_value(permute(game, pi)).player_values
            for pos in range(3):
                assert moved[pi[pos] - 1] == base[pos]


class TestPotentialIdentityWider:
    def test_four_player_suite(self):
        rng = random.Random(83)
        for n, j, k in ((4, 2, 2), (4, 2, 3), (4, 3, 2), (4, 3, 3)):
            for _ in range(15):
                game = random_monotone_jk(n, j, k, rng)
                psi = public_good_value_jk(game).player_values
                P = jk_potential(game)
                for pos, i in enumerate(game.players()):
                    assert psi[pos] == P - jk_potential(remove_player(game, i))
                assert jk_potential_recursive(game) == P


class TestAverageDiscipline:
    def test_denominators_divide_the_scale(self):
        rng = random.Random(89)
        for n, j, k in ((2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3)):
            unit = j**n * (k - 1)
            for _ in range(10):
                game = random_monotone_jk(n, j, k, rng)
                tu = average_game(game).tu
                for S in all_coalitions(n):
                    assert (tu.worth(S) * unit).denominator == 1

    def test_grand_coalition_worth_pins_the_top(self):
        rng = random.Random(93)
        for _ in range(20):
            game = random_monotone_jk(3, 3, 3, rng)
            tu = average_game(game).tu
            top = evaluate(game, (2, 2, 2))
            assert tu.worth(frozenset({1, 2, 3})) == Fraction(top, game.k - 1)
            assert (tu.worth(frozenset({1, 2, 3})) == 1) == (top == game.k - 1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 5),
        j=st.integers(2, 4),
        k=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=0, j=2, k=2, seed=0)
    @example(n=1, j=4, k=4, seed=1)
    def test_reduction_matches_oracle(self, n, j, k, seed):
        game = random_monotone_jk(n, j, k, random.Random(seed))
        tu = average_game(game).tu
        for S in all_coalitions(n):
            assert tu.worth(S) == average_worth_oracle(game, S)


class TestRationalRoundTrip:
    @settings(max_examples=80)
    @given(
        numerator=st.integers(-10**6, 10**6),
        denominator=st.integers(1, 10**6),
    )
    def test_string_form_parses_back(self, numerator, denominator):
        q = Fraction(numerator, denominator)
        assert parse_rational(rational_str(q), "<test>", "value") == q


class TestCLIRoundTrip:
    def test_embed_reload_reports_match(self, quota_simple, tmp_path):
        import io

        from pgindex import dump_game
        from pgindex.cli import AnalysisRequest, run

        source = tmp_path / "s.json"
        dump_game(quota_simple, source)
        out = io.StringIO()
        status = run(
            AnalysisRequest(command="embed", input_paths=(str(source),)), out=out
        )
        assert status == 0
        reloaded = loads_game(out.getvalue())
        assert public_good_value_jk(reloaded).player_values == pgi_raw(
            quota_simple
        ).player_values


def _naive_closure(n, generators):
    """Every coalition containing some generator, by the subset test."""
    gens = [frozenset(g) for g in generators]
    return frozenset(S for S in all_coalitions(n) if any(g <= S for g in gens))


@st.composite
def generator_lists(draw):
    n = draw(st.integers(0, 5))
    nonempty = [S for S in all_coalitions(n) if S]
    gens = draw(st.lists(st.sampled_from(nonempty), max_size=5)) if nonempty else []
    return n, gens


class TestKernelTwins:
    """The flat-table routes (axis closure, descent finder, predecessor
    scan, row maps and axis slices) against literal frozenset and
    per-profile scans that share no code with them."""

    @settings(max_examples=60, deadline=None)
    @given(case=generator_lists())
    def test_closure_matches_naive_closure(self, case):
        n, gens = case
        assert simple_game_from_generators(n, gens).winning == _naive_closure(n, gens)

    @settings(max_examples=60, deadline=None)
    @given(case=generator_lists())
    def test_mwc_matches_subset_scan_and_oracle(self, case):
        n, gens = case
        winning = _naive_closure(n, gens)
        game = make_simple_game(n, winning)
        literal = frozenset(
            S
            for S in winning
            if not any(
                frozenset(T) in winning for r in range(len(S)) for T in combinations(S, r)
            )
        )
        assert minimal_winning_coalitions(game) == literal
        oracle = minimal_critical_vectors_oracle(embed_simple(game))
        assert frozenset(coalition_of_profile(x) for x in oracle.vectors) == literal

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 5), seed=st.integers(0, 10**6))
    def test_mcc_matches_departure_scan_with_negative_worths(self, n, seed):
        game = random_tu(n, random.Random(seed))
        literal = frozenset(
            S
            for S in all_coalitions(n)
            if S and all(game.worth(S) > game.worth(S - {i}) for i in S)
        )
        assert minimal_critical_coalitions(game) == literal

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 4), data=st.data())
    def test_hole_count_matches_brute_force(self, n, data):
        nonempty = [S for S in all_coalitions(n) if S]
        family = frozenset(data.draw(st.lists(st.sampled_from(nonempty)))) if n else frozenset()
        holes = [
            (S, S | {i}) for S in family for i in range(1, n + 1) if S | {i} not in family
        ]
        if not holes:
            assert make_simple_game(n, family).winning == family
            return
        with pytest.raises(MonotonicityViolation, match=rf"\({len(holes)} holes\)") as info:
            make_simple_game(n, family)
        assert sorted(info.value.witnesses, key=str) == sorted(holes, key=str)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 5), seed=st.integers(0, 10**6), monotone=st.booleans())
    def test_tu_monotone_flag_matches_brute_force(self, n, seed, monotone):
        """On drawn games, their subgames, (2,k) embeddings and average games."""
        rng = random.Random(seed)
        game = random_monotone_tu(n, rng) if monotone else random_tu(n, rng)
        games = [
            game,
            embed_2k_as_tu(random_monotone_jk(n, 2, rng.randrange(2, 5), rng)),
            average_game(random_monotone_jk(min(n, 3), rng.randrange(2, 4), 3, rng)).tu,
        ]
        players = range(1, n + 1)
        games += [subgame(game, rng.sample(players, rng.randrange(n + 1))) for _ in range(3)]
        for tu in games:
            literal = all(
                tu.worth(S) <= tu.worth(S | {i})
                for S in all_coalitions(tu.n)
                for i in range(1, tu.n + 1)
            )
            assert tu.monotone == literal

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), j=st.integers(2, 4), seed=st.integers(0, 10**6), data=st.data())
    def test_permute_matches_per_profile_definition(self, n, j, seed, data):
        game = random_monotone_jk(n, j, 3, random.Random(seed))
        pi = data.draw(st.permutations(range(1, n + 1)))
        # the new game reads coordinate pi(i) where the old one read coordinate i
        literal = tuple(
            evaluate(game, tuple(x[pi[p] - 1] for p in range(n)))
            for x in product(range(j), repeat=n)
        )
        assert permute(game, pi).levels == literal

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), j=st.integers(2, 4), seed=st.integers(0, 10**6), data=st.data())
    def test_null_player_matches_per_profile_definition(self, n, j, seed, data):
        rng = random.Random(seed)
        dead = data.draw(st.integers(0, n))
        # a game with coordinate `dead` grafted on unused, when dead > 0
        flat = random_monotone_jk(n - (dead > 0), j, rng.randrange(2, 4), rng)
        levels = [
            evaluate(flat, x[: dead - 1] + x[dead:] if dead else x)
            for x in product(range(j), repeat=n)
        ]
        game = make_table_game(n, j, flat.k, levels)
        for i in game.players():
            literal = all(
                evaluate(game, x) == evaluate(game, x[: i - 1] + (0,) + x[i:])
                for x in product(range(j), repeat=n)
            )
            assert is_null_player(game, i) == literal
            if i == dead:
                assert literal

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(((1, 4, 3), (2, 3, 3), (3, 2, 2), (3, 3, 3), (2, 4, 2))),
        data=st.data(),
    )
    def test_table_witnesses_in_table_order(self, shape, data):
        n, j, k = shape
        tail = data.draw(st.lists(st.integers(0, k - 1), min_size=j**n - 1, max_size=j**n - 1))
        levels = (0, *tail)
        table = dict(zip(all_profiles(n, j), levels))
        raised = [
            (x, x[:p] + (x[p] + 1,) + x[p + 1 :]) for x in table for p in range(n) if x[p] < j - 1
        ]
        literal = [(x, y) for x, y in raised if table[x] > table[y]]
        if not literal:
            make_table_game(n, j, k, levels)
            return
        with pytest.raises(MonotonicityViolation) as info:
            make_table_game(n, j, k, levels)
        assert list(info.value.witnesses) == literal
