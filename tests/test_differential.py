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

TU game files load in one integer pass; a naive per-key loader kept here
(frozensets, ``Fraction`` worths, the player check per key) must give the
same game, or the same error, on random worth maps with faults injected.

``potential --oracle``, ``average --oracle``, ``merge`` and ``embed`` are
checked the same way against their library twins: the down-set oracle's
listing, ``average_worth_oracle``, ``mcv_union_check`` and the embeddings
loaded back with ``loads_game``.
"""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgindex import (
    GameError,
    JKGame,
    ParseError,
    SimpleGame,
    TUGame,
    ValidationError,
    average_worth_oracle,
    dump_game,
    dumps_game,
    embed_2k_as_tu,
    embed_simple,
    extract_simple,
    load_game,
    loads_game,
    make_tu_game,
    make_weighted_game,
    mcv_union_check,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    minimal_critical_vectors_oracle,
    minimal_winning_coalitions,
    oplus,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    real_gaining_coalitions,
    simple_game_from_generators,
    single_mcv_game,
)
from pgindex import games
from pgindex.cli import main
from pgindex.critical import ORACLE_CAP
from pgindex.errors import IncompleteWorthTable, NotMergeable
from pgindex.gamefile import _get_int
from pgindex.games import (
    DEFAULT_CAP,
    _check_exponent,
    _check_players,
    _over_digit_limit,
    all_coalitions,
    check_cap,
    coalition_index,
    coalition_of_profile,
)

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


def _machine(command: str, *games_, oracle: bool = False) -> dict:
    """``command --format machine`` on the games written to files; the run
    must succeed with nothing on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"game{pos}.json" for pos in range(len(games_))]
        for game, path in zip(games_, paths):
            dump_game(game, path)
        extra = ("--oracle",) if oracle else ()
        status, out, err = _cli(command, *map(str, paths), "--format", "machine", *extra)
    assert (status, err) == (0, "")
    return json.loads(out)


def _literal_mcc(game: TUGame) -> list:
    """Minimal critical coalitions by the definition, with ``Fraction`` worths."""
    worth = dict(zip(all_coalitions(game.n), game.worths))
    return [(S, w) for S, w in worth.items() if S and all(worth[S - {i}] < w for i in S)]


def _random_mcv_game(n: int, j: int, k: int, rng: random.Random) -> JKGame:
    """A random monotone game, or one with a single minimal critical
    vector, which is far more often mergeable with another."""
    x = [rng.randrange(j) for _ in range(n)]
    if rng.random() < 0.5 or not any(x):
        return random_monotone_jk(n, j, k, rng)
    return single_mcv_game(x, rng.randrange(1, k), j, k)


class TestCommandOracles:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10**6))
    def test_potential_matches_oracle_listing(self, kind, seed):
        game = _draw_game(kind, random.Random(seed))
        doc = _machine("potential", game, oracle=True)
        assert doc["oracle_agrees"] is True or (
            doc["oracle_agrees"] is None and doc["oracle_note"]
        ), doc["oracle_note"]
        potential = Fraction(doc["potential"])
        if isinstance(game, TUGame):
            assert potential == sum((w for _, w in _literal_mcc(game)), Fraction(0))
            assert doc["recursive"] is doc["match"] is None
            return
        jk = embed_simple(game) if isinstance(game, SimpleGame) else game
        assert jk.j ** jk.n <= ORACLE_CAP
        assert potential == sum(minimal_critical_vectors_oracle(jk).worths)
        assert Fraction(doc["recursive"]) == potential and doc["match"] is True

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(("table", "weighted")), seed=st.integers(0, 10**6))
    def test_average_matches_worth_oracle(self, kind, seed):
        game = _draw_game(kind, random.Random(seed))
        doc = _machine("average", game, oracle=True)
        assert doc["oracle_agrees"] is True
        average = loads_game(json.dumps(doc["average_game"]))
        expected = [average_worth_oracle(game, S) for S in all_coalitions(game.n)]
        assert list(average.worths) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_merge_matches_union_check(self, seed):
        rng = random.Random(seed)
        n, j, k = rng.randrange(1, 4), rng.randrange(2, 4), rng.randrange(2, 5)
        v, w = (_random_mcv_game(n, j, k, rng) for _ in range(2))
        doc = _machine("merge", v, w)
        listings = [list(minimal_critical_vectors_oracle(game).pairs()) for game in (v, w)]
        # the clauses on the oracle's listings: no shared vector, and each
        # comparable cross pair strictly ordered the same way by worth
        literal = all(
            x != y
            and (not all(map(int.__le__, x, y)) or a < b)
            and (not all(map(int.__ge__, x, y)) or a > b)
            for x, a in listings[0] for y, b in listings[1]
        )
        assert doc["mergeable"] is literal
        assert (doc["violations"] == []) is literal
        if not literal:
            assert doc["union_check"] is None
            with pytest.raises(NotMergeable):
                mcv_union_check(v, w)
            return
        assert doc["union_check"] is mcv_union_check(v, w) is True
        union = sorted([*minimal_critical_vectors(v).pairs(), *minimal_critical_vectors(w).pairs()])
        assert union == list(minimal_critical_vectors_oracle(oplus(v, w)).pairs())

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(("table", "weighted", "simple")), seed=st.integers(0, 10**6))
    def test_embed_round_trips(self, kind, seed):
        game = _draw_game(kind, random.Random(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "game.json"
            dump_game(game, path)
            status, out, err = _cli("embed", str(path))
        if isinstance(game, JKGame) and game.j != 2:  # no TU view of it
            assert (status, out) == (1, "") and err.startswith("error: ")
            return
        assert (status, err) == (0, "")
        embedded = loads_game(out)
        assert dumps_game(embedded) == out
        if isinstance(game, SimpleGame):
            assert embedded == embed_simple(game) and extract_simple(embedded) == game
            images = {coalition_of_profile(x) for x in minimal_critical_vectors_oracle(embedded).vectors}
            assert images == minimal_winning_coalitions(game)
        else:
            assert embedded == embed_2k_as_tu(game)
            images = {coalition_of_profile(x) for x in minimal_critical_vectors_oracle(game).vectors}
            assert images == minimal_critical_coalitions(embedded)


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


def _check_literal_fractions(game) -> None:
    """The integer kernels of a TU game against the literal ``Fraction``
    reference: denominator, numerators, monotonicity, both listings and
    each report's values."""
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


class TestIntegerTUKernels:
    @settings(max_examples=80, deadline=None)
    @given(game=mixed_tu())
    def test_kernels_match_literal_fractions(self, game):
        _check_literal_fractions(game)

    @pytest.mark.parametrize("monotone", (True, False))
    def test_many_distinct_numerators(self, monotone):
        # more than 127 distinct numerators, negative ones too when not
        # monotone: the scan ranks the entries into wider lanes
        rng, worths = random.Random(17), {}
        for S in all_coalitions(8):
            floor = max((worths[S - {i}] for i in S), default=Fraction(0)) if monotone else 0
            step = Fraction(rng.randrange(0 if monotone else -500, 500), rng.choice((1, 2, 3)))
            worths[S] = floor + step if S else Fraction(0)
        game = make_tu_game(8, worths)
        assert len(set(game.numerators)) > 127
        assert min(game.numerators) < 0 or monotone
        _check_literal_fractions(game)

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
                    ",".join(map(str, sorted(S))): str(q) if isinstance(q, Fraction) else q
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


# ---------------------------------------------------------------------------
# the TU loader against a naive per-key reference


def _reference_rational(obj, path, what: str) -> Fraction:
    """Every worth through ``Fraction``: the exponent check, then the digits."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ParseError(path, f'{what} must be an integer or a "p/q" string, got {obj!r}')
    try:
        _check_exponent(obj, what)
        q, limit = Fraction(obj), sys.get_int_max_str_digits()
        if _over_digit_limit(q.numerator, limit) or _over_digit_limit(q.denominator, limit):
            raise ParseError(path, f"{what} {obj!r} has more than {limit} digits")
        return q
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, f"{what} is not a rational: {obj!r}") from None


def _reference_load_tu(doc: dict, path, cap: int) -> TUGame:
    """Key by key: a set of members, a frozenset per coalition and a
    ``Fraction`` per worth; then n, the cap and the players pair by pair,
    a rank table, and the public constructor."""
    n = _get_int(doc, "n", path)
    worth = doc.get("worth")
    if not isinstance(worth, dict):
        raise ParseError(path, '"worth" must be an object keyed by member lists')
    pairs, keys = [(frozenset(), Fraction(0))], {}
    for key, value in worth.items():
        members = set()
        for token in key.split(",") if key else ():
            try:
                member = int(token.strip())
            except ValueError:
                raise ParseError(
                    path, f"worth key {key!r} is not a comma-separated member list"
                ) from None
            if member in members:
                raise ParseError(path, f"worth key {key!r} lists member {member} twice")
            members.add(member)
        coalition = frozenset(members)
        if coalition in keys:
            raise ParseError(
                path, f"worth keys {keys[coalition]!r} and {key!r} name the same coalition"
            )
        keys[coalition] = key
        pairs.append((coalition, _reference_rational(value, path, f"worth of {key!r}")))
    if n < 0:
        raise ValidationError(f"player count must be >= 0, got {n}")
    size = check_cap(n, 2, cap, "worth table would need {} entries")
    table = {}
    for S, value in pairs:
        table[coalition_index(_check_players(S, n), n)] = value
    missing = size - len(table)
    if missing:
        raise IncompleteWorthTable(f"{missing} of {size} coalitions have no worth")
    return TUGame(n, tuple(map(table.__getitem__, range(size))))


def _key_forms(S, draw) -> str:
    """One way to write the members of S as a worth key."""
    members = sorted(S)
    if draw(st.booleans()):
        members = draw(st.permutations(members))
    form = draw(st.sampled_from(("plain", "plain", "spaced", "padded", "signed")))
    tokens = [str(i) for i in members]
    if form == "spaced":
        tokens = [f" {t}\t" for t in tokens]
    elif form == "padded":
        tokens = [f"0{t}" for t in tokens]
    elif form == "signed":
        tokens = [f"+{t}" for t in tokens]
    return ",".join(tokens)


#: worths in every accepted form, the plain ones most often
RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.integers(-50, 50).map(str),
    st.tuples(st.integers(-50, 50), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from((
        "0.5", "1.5e3", "-2.5E-1", " 1/2 ", "1_000", "+3", "-0", "0/7", "٣/٤", "6/4", "10/-4",
    )),
)

#: a fault of each kind of ``tools/bytecheck.py`` DOCS, as (key, value) or a change to n
_HUGE = ("1/1" + "0" * 2199 + "1", "1/1" + "0" * 2199 + "3")
KEY_FAULTS = ("x", "1,x", "1,1", "1,1,x", "x,1,1", "1,,2", " ", "0", "9,0", "9,0,1", "-1", "5")
VALUE_FAULTS = (
    "a", "1/0", "0/0", "", "1/", "/2", None, 1.5, True, [1], {"1": 1}, "1e10000000",
    "1e4300", "10e4299", "1e-4300", "9" * 4301, _HUGE[0], _HUGE[1],
)


@st.composite
def worth_files(draw):
    """A TU game file with up to four players, keys and worths in random
    forms and order, and up to three faults of the DOCS kinds injected."""
    n = draw(st.integers(0, 4))
    items = [
        (_key_forms(S, draw), draw(RATIONALS))
        for S in all_coalitions(n)
        if S or draw(st.booleans())  # "" may be explicit, worth 0 or not
    ]
    if items and items[0][0] == "" and draw(st.booleans()):
        items[0] = ("", 0)
    items = draw(st.permutations(items))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(("key", "value", "same", "missing", "empty", "lcm", "n")))
        at = draw(st.integers(0, len(items)))
        if fault == "key":
            key = draw(st.sampled_from(KEY_FAULTS))
            if items and draw(st.booleans()):  # a member of a named coalition twice
                named = items[at % len(items)][0]
                key = f"{named},{named.split(',')[-1]}" if named else key
            items.insert(at, (key, draw(RATIONALS)))
        elif fault == "value" and items:
            key, _ = items[at % len(items)]
            items[at % len(items)] = (key, draw(st.sampled_from(VALUE_FAULTS)))
        elif fault == "same" and len(items) > 1:
            key, _ = items[at % len(items)]
            members = [t.strip() for t in key.split(",") if t.strip()]
            if members:
                items.insert(at, (", ".join(reversed(members)) + " ", draw(RATIONALS)))
        elif fault == "missing" and items:
            del items[at % len(items)]
        elif fault == "empty":
            items = [(k, v) for k, v in items if k != ""]
            items.insert(at, ("", draw(st.sampled_from((5, "1/2", "-0", _HUGE[0])))))
        elif fault == "lcm" and len(items) > 1:  # two coprime 2,201-digit denominators
            for huge in _HUGE:
                key, _ = items[at % len(items)]
                items[at % len(items)] = (key, huge)
                at += 1
        elif fault == "n":
            n = draw(st.sampled_from((-2, -1, n + 1, n + 2, 24, 40, 100)))
    worth = {}
    for key, value in items:  # a repeated key would be a JSON error, not a TU one
        worth.setdefault(key, value)
    return {"kind": "tu", "n": n, "worth": worth}


def _outcome(load):
    try:
        return load()
    except GameError as exc:
        return type(exc), str(exc)


def _tu(n, worth, cap=DEFAULT_CAP, table_bits=games.TABLE_BITS):
    return {"doc": {"kind": "tu", "n": n, "worth": worth}, "cap": cap, "table_bits": table_bits}


class TestLoaderReference:
    @settings(max_examples=400, deadline=None)
    # fault orders pinned in tools/bytecheck.py DOCS
    @example(**_tu(1, {"x": "1", "1": "a"}))
    @example(**_tu(1, {"1,1,x": "1"}))
    @example(**_tu(-1, {"0": "1", "1,1": "2"}))
    @example(**_tu(100, {"1,2": "1", "2,1": "2", "1": "1/0"}))
    @example(**_tu(-2, {"1": "1/0"}))
    @example(**_tu(40, {"41": "1"}))
    @example(**_tu(2, {"1": "1", "7": "1", "0": "1", "9,0": "1"}))
    @example(**_tu(2, {"9,0,1": "1", "1": "1"}))
    @example(**_tu(2, {"": "5", "3": "1"}))
    @example(**_tu(2, {"": "5", "1": "1"}))
    @example(**_tu(1, {"": _HUGE[0], "1": _HUGE[1]}))
    @example(**_tu(2, {"1": _HUGE[0], "2": _HUGE[1], "1,2": "1"}))
    @example(**_tu(1, {"1": "1e4300"}))
    @example(**_tu(1, {"1": "10e4299"}))
    # a repeat within a canonical key of a full table; D over the bits bound
    @example(**_tu(2, {"1": "1", "2": "1", "1,2": "1", "2,2": "1"}))
    @example(**_tu(2, {"1": "1/6", "2": "1/35", "1,2": "1/11"}, table_bits=2 ** 5))
    @given(
        doc=worth_files(),
        cap=st.sampled_from((DEFAULT_CAP, DEFAULT_CAP, 2 ** 3, 7)),
        table_bits=st.sampled_from((games.TABLE_BITS, games.TABLE_BITS, 2 ** 8, 2 ** 5)),
    )
    def test_one_pass_matches_per_key_reference(self, doc, cap, table_bits):
        text = json.dumps(doc)
        with mock.patch.object(games, "TABLE_BITS", table_bits):
            got = _outcome(lambda: loads_game(text, cap=cap))
            want = _outcome(lambda: _reference_load_tu(json.loads(text), "<input>", cap))
        assert type(got) is type(want)
        if isinstance(want, TUGame):
            assert got == want and repr(got) == repr(want)
            assert got.labels == want.labels
            assert all(type(q) is Fraction for q in got.worths)
            assert (got.denominator, got.numerators) == (want.denominator, want.numerators)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "n, error",
        [(24, "^16777213 of 16777216 coalitions have no worth"), (5000, "^5000 players")],
    )
    def test_few_keys_for_many_players_build_no_table(self, n, error):
        # three of 2^n coalitions named: refused in memory proportional to
        # the keys, with no table and no n-bit ranks
        doc = json.dumps({"kind": "tu", "n": n, "worth": {"1": "1", "2,24": 2}})
        tracemalloc.start()
        try:
            with pytest.raises(GameError, match=error):
                loads_game(doc)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
        finally:
            tracemalloc.stop()
