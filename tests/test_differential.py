"""Random valid game files of every kind through the CLI, the library and
the oracles.

Each drawn game is written with ``dump_game``; ``analyze --format machine
--oracle`` on that file must report the listing and the player values the
library computes on the same file loaded back, and its oracle cross-check
must agree unless it reports that it was skipped.

TU games run on integer numerators over a common denominator; random TU
games with mixed denominators are checked against the definitions computed
literally with ``Fraction`` worths, and one rational written in several
forms must give the same game and the same CLI output.
"""

import contextlib
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex import (
    JKGame,
    SimpleGame,
    dump_game,
    load_game,
    make_tu_game,
    make_weighted_game,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    minimal_winning_coalitions,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    real_gaining_coalitions,
    simple_game_from_generators,
)
from pgindex.cli import main
from pgindex.gamefile import coalition_key
from pgindex.games import all_coalitions, coalition_index

from gamegen import random_monotone_jk, random_monotone_tu, random_tu

KINDS = ("table", "weighted", "simple", "tu_monotone", "tu")


def _draw_game(kind: str, rng: random.Random):
    if kind == "table":
        return random_monotone_jk(rng.randrange(4), rng.randrange(2, 4), rng.randrange(2, 5), rng)
    if kind == "weighted":
        n, k = rng.randrange(4), rng.randrange(2, 5)
        weights = [Fraction(rng.randrange(7), rng.randrange(1, 4)) for _ in range(n)]
        thresholds = [Fraction(t, 2) for t in sorted(rng.sample(range(1, 13), k - 1))]
        return make_weighted_game(weights, thresholds, rng.randrange(2, 4), k)
    if kind == "simple":
        n = rng.randrange(6)
        count = rng.randrange(4) if n else 0
        generators = [rng.sample(range(1, n + 1), rng.randrange(1, n + 1)) for _ in range(count)]
        return simple_game_from_generators(n, generators)
    make = random_monotone_tu if kind == "tu_monotone" else random_tu
    return make(rng.randrange(5), rng)


def _analyze(path: Path, *extra: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(["analyze", str(path), "--format", "machine", "--oracle", *extra])
    return status, json.loads(out.getvalue())


def _expected(game, family: str):
    """The library's first report and its listing as (key, worth) pairs in
    rank order, through the public set views rather than the report."""
    if isinstance(game, JKGame):
        return public_good_value_jk(game), list(minimal_critical_vectors(game).pairs())
    if isinstance(game, SimpleGame):
        found = minimal_winning_coalitions(game)
        report, worth = pgi_raw(game), lambda S: Fraction(1)
    else:
        routes = {"mcc": minimal_critical_coalitions, "rgc": real_gaining_coalitions}
        found = routes[family](game)
        report, worth = pgv_tu(game, family), game.worth
    ordered = sorted(found, key=lambda S: coalition_index(S, game.n))
    return report, [(S, worth(S)) for S in ordered]


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10**6))
    def test_cli_matches_library_and_oracle(self, kind, seed):
        game = _draw_game(kind, random.Random(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "game.json"
            dump_game(game, path)
            loaded = load_game(path)
            families = ("mcc", "rgc") if kind.startswith("tu") else ("mcc",)
            runs = [(family, *_analyze(path, "--family", family)) for family in families]
        assert loaded == game
        for family, status, doc in runs:
            report, listing = _expected(loaded, family)
            # exit 1 only for the constant-0 game, which has no normalized value
            assert status == (1 if doc["error"] else 0)
            got = doc["reports"][0]
            assert [Fraction(q) for q in got["player_values"]] == list(report.player_values)
            if isinstance(loaded, JKGame):
                assert [(tuple(e["vector"]), e["worth"]) for e in got["listing"]] == listing
            else:
                pairs = [(frozenset(e["coalition"]), Fraction(e["worth"])) for e in got["listing"]]
                assert pairs == listing
            if kind.startswith("tu"):
                literal = all(
                    loaded.worth(S) <= loaded.worth(S | {i})
                    for S in all_coalitions(loaded.n)
                    for i in loaded.players()
                )
                assert doc["game"]["monotone"] == literal
            assert doc["oracle_agrees"] is True or (
                doc["oracle_agrees"] is None and doc["oracle_note"]
            ), doc["oracle_note"]


@st.composite
def mixed_tu(draw):
    """A TU game on up to 4 players whose worths have mixed denominators;
    monotone about half the time, with ties in both kinds."""
    n, monotone = draw(st.integers(0, 4)), draw(st.booleans())
    denominators = st.sampled_from((1, 2, 3, 4, 6, 7, 10, 1000))
    worths = {}
    for S in all_coalitions(n):  # rank order: every S - {i} comes before S
        floor = max((worths[S - {i}] for i in S), default=Fraction(0)) if monotone else 0
        step = Fraction(draw(st.integers(0 if monotone else -5, 5)), draw(denominators))
        worths[S] = floor + step if S else Fraction(0)
    return make_tu_game(n, worths)


def _cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


#: one rational per row, in forms that must all read the same
FORMS = (
    (Fraction(2, 4), "1/2", "0.5", "2/4", "5e-1", " 1/2 "),
    (Fraction(3, 2), "3/2", "1.5", "6/4", "15e-1", "1_5/1_0"),
    (Fraction(-1, 4), "-1/4", "-0.25", "-2/8", "-25e-2", " -0.25"),
    (5, "5", "5/1", "5.0", "0.5e1", "+5"),
)


class TestIntegerTUKernels:
    @settings(max_examples=80, deadline=None)
    @given(game=mixed_tu())
    def test_kernels_match_literal_fractions(self, game):
        worth = dict(zip(all_coalitions(game.n), game.worths))  # rank order
        d = math.lcm(*(q.denominator for q in game.worths))
        assert game.denominator == d
        assert game.numerators == tuple(q * d for q in game.worths)
        assert all(type(num) is int for num in game.numerators)
        assert game.monotone == all(
            worth[S] <= worth[S | {i}] for S in worth for i in game.players()
        )
        families = {
            "mcc": [S for S in worth if S and all(worth[S - {i}] < worth[S] for i in S)],
            "rgc": [S for S in worth if S and all(worth[T] < worth[S] for T in worth if T < S)],
        }
        for family, found in families.items():
            report = pgv_tu(game, family)
            assert list(report.listing.pairs()) == [(S, worth[S]) for S in found]
            expected = tuple(
                sum((worth[S] for S in found if i in S), Fraction(0)) for i in game.players()
            )
            assert report.player_values == expected
            assert all(type(q) is Fraction for q in report.player_values)
            assert report.potential == sum((worth[S] for S in found), Fraction(0))
            assert report.lambda_total == sum((worth[S] * len(S) for S in found), Fraction(0))

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(1, len(FORMS[0]) - 1), min_size=7, max_size=7))
    def test_one_rational_in_several_forms(self, picks):
        coalitions = [S for S in all_coalitions(3) if S]
        rows = [FORMS[rank % len(FORMS)] for rank in range(7)]

        def game_of(forms):
            return make_tu_game(3, {frozenset(): 0, **{
                S: row[pick] for S, row, pick in zip(coalitions, rows, forms)
            }})

        canonical, written = game_of([0] * 7), game_of(picks)
        assert written == canonical
        assert written.denominator == canonical.denominator
        assert written.numerators == canonical.numerators
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for forms in ([0] * 7, picks):
                values = [row[pick] for row, pick in zip(rows, forms)]
                worth = {
                    coalition_key(S): str(q) if isinstance(q, Fraction) else q
                    for S, q in zip(coalitions, values)
                }
                path = Path(tmp) / "game.json"
                path.write_text(json.dumps({"kind": "tu", "n": 3, "worth": worth}), "utf-8")
                assert load_game(path) == canonical
                outputs.append([
                    _cli(command, "--format", fmt, "--family", family, str(path))
                    for command in ("analyze", "mcv")
                    for fmt in ("table", "machine")
                    for family in ("mcc", "rgc")
                ])
        assert outputs[0] == outputs[1]
