"""Random valid game files of every kind through the CLI, the library and
the oracles.

Each drawn game is written with ``dump_game``; ``analyze --format machine
--oracle`` on that file must report the listing and the player values the
library computes on the same file loaded back, and its oracle cross-check
must agree unless it reports that it was skipped.
"""

import contextlib
import io
import json
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
