import contextlib
import json
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgindex import (
    GameError,
    ParseError,
    ValidationError,
    SimpleGame,
    TUGame,
    dump_game,
    dumps_game,
    load_game,
    loads_game,
    make_tu_game,
    rational_str,
)
from pgindex import gamefile
from pgindex.cli import _json_default
from pgindex.errors import NonZeroEmptyCoalition
from pgindex.gamefile import _dumps, parse_rational
from pgindex.games import _check_exponent

from gamegen import random_monotone_jk, random_monotone_tu, random_tu
import random


class TestRationalStrings:
    def test_canonical(self):
        assert rational_str(Fraction(51, 18)) == "17/6"
        assert rational_str(Fraction(6)) == "6"
        assert rational_str(Fraction(-1, 2)) == "-1/2"

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000"])
    def test_huge_decimal_exponent_refused(self, text):
        # refused before Fraction spends seconds on ten to the exponent
        doc = f'{{"kind": "tu", "n": 1, "worth": {{"1": "{text}"}}}}'
        with pytest.raises(ParseError) as info:
            loads_game(doc, path="t.json")
        assert str(info.value) == (
            f"t.json: worth of '1' {text!r} has a decimal exponent beyond 4300 in magnitude"
        )

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789-+/_. eE\u0663\u00b2\t\x1c", max_size=8))
    @example("1" * 4301)
    @example("1/" + "1" * 4301)
    def test_parse_rational_reads_strings_as_fraction_does(self, text):
        # the plain "p/q" shortcut must agree with the exponent check and
        # Fraction(text) on every string
        try:
            _check_exponent(text, "worth")
            expected = Fraction(text)
        except ValidationError as exc:
            expected = str(exc)
        except (ValueError, ZeroDivisionError):
            expected = "is not a rational"
        if isinstance(expected, Fraction):
            got = parse_rational(text, "t.json", "worth")
            assert (type(got), got) == (Fraction, expected)
        else:
            with pytest.raises(ParseError) as info:
                parse_rational(text, "t.json", "worth")
            assert expected in str(info.value)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="0123456789-+/_. eE\u0663\t", max_size=8),
            st.sampled_from((
                "1e4300", "10e4299", "1e-4300", "1e4299", "1e10000000", "9" * 4301,
                "1/" + "9" * 4301, "1/0", "0/0", "6/4", "-0", "\u0663/\u0664", "nan", "inf",
            )),
        )
    )
    def test_library_and_file_read_the_same_strings(self, text):
        # one reader: the same worths, or the same refusal, in which the library
        # names the worth by its coalition and the file by its key
        def outcome(build):
            try:
                return build()
            except GameError as exc:
                return type(exc), str(exc)

        library = outcome(lambda: make_tu_game(1, {(): 0, (1,): text}))
        doc = json.dumps({"kind": "tu", "n": 1, "worth": {"1": text}})
        file = outcome(lambda: loads_game(doc))
        if isinstance(library, TUGame):
            assert file == library and file.worths == library.worths
        else:
            assert library[0] is ValidationError and file[0] is ParseError
            assert file[1] == "<input>: " + library[1].replace("worth of [1]", "worth of '1'")

    def test_decimal_exponent_within_limit_loads(self):
        game = loads_game('{"kind": "tu", "n": 1, "worth": {"1": "1.5e300"}}')
        assert game.worths == (0, 15 * 10 ** 299)


class TestJKFiles:
    def test_weighted_roundtrip(self, example33, tmp_path):
        path = tmp_path / "g.json"
        dump_game(example33, path)
        loaded = load_game(path)
        assert loaded == example33
        assert loaded.provenance == example33.provenance

    def test_table_roundtrip(self):
        rng = random.Random(37)
        for _ in range(10):
            game = random_monotone_jk(2, 3, 3, rng)
            assert loads_game(dumps_game(game)) == game

    def test_table_and_weighted_mutually_exclusive(self):
        text = '{"kind": "jk", "n": 1, "j": 2, "k": 2, "table": [0, 1], "weighted": {"weights": ["1"], "thresholds": ["1"]}}'
        with pytest.raises(ParseError):
            loads_game(text)

    def test_bool_entry_rejected(self):
        with pytest.raises(ParseError):
            loads_game('{"kind": "jk", "n": 1, "j": 2, "k": 2, "table": [0, true]}')

    def test_weighted_n_mismatch(self):
        text = '{"kind": "jk", "n": 3, "j": 2, "k": 2, "weighted": {"weights": ["1"], "thresholds": ["1"]}}'
        with pytest.raises(ParseError):
            loads_game(text)


class TestSimpleFiles:
    def test_roundtrip(self, quota_simple):
        loaded = loads_game(dumps_game(quota_simple))
        assert isinstance(loaded, SimpleGame)
        assert loaded == quota_simple

    def test_generators_closed_upward(self):
        loaded = loads_game('{"kind": "simple", "n": 3, "winning": [[1], [2, 3]]}')
        assert frozenset({1, 2}) in loaded.winning

    def test_winning_must_be_lists(self):
        with pytest.raises(ParseError):
            loads_game('{"kind": "simple", "n": 2, "winning": [1]}')


class TestTUFiles:
    def test_roundtrip(self):
        rng = random.Random(41)
        for n in (1, 2, 3):
            game = random_monotone_tu(n, rng)
            loaded = loads_game(dumps_game(game))
            assert isinstance(loaded, TUGame)
            assert loaded == game

    def test_empty_key_optional(self):
        loaded = loads_game('{"kind": "tu", "n": 1, "worth": {"1": "1/2"}}')
        assert loaded.worth(frozenset()) == 0
        assert loaded.worth(frozenset({1})) == Fraction(1, 2)

    def test_bad_key(self):
        with pytest.raises(ParseError):
            loads_game('{"kind": "tu", "n": 2, "worth": {"1,x": "1"}}')

    def test_float_worth_rejected(self):
        with pytest.raises(ParseError):
            loads_game('{"kind": "tu", "n": 1, "worth": {"1": 0.5}}')

    @pytest.mark.parametrize(
        "worth, message",
        [
            ('{"1,2": "2", "2, 1": "5"}', "worth keys '1,2' and '2, 1' name the same coalition"),
            ('{"1": "1", "1,1": "7"}', "worth key '1,1' lists member 1 twice"),
        ],
        ids=["reordered", "repeated-member"],
    )
    def test_repeated_coalition_rejected(self, worth, message):
        with pytest.raises(ParseError) as info:
            loads_game(f'{{"kind": "tu", "n": 2, "worth": {worth}}}', path="t.json")
        assert str(info.value) == f"t.json: {message}"


@contextlib.contextmanager
def _bulk_taken():
    """Record whether each TU load took the canonical-key route."""
    taken, read = [], gamefile._read_canonical

    def spy(*args):
        taken.append(read(*args))
        return taken[-1]

    with mock.patch.object(gamefile, "_read_canonical", spy):
        yield taken


def _outcome(text):
    try:
        game = loads_game(text, path="t.json")
    except GameError as exc:
        return type(exc), str(exc)
    return game, game.numerators, game.denominator


def _both_routes(text):
    """The outcome of loading ``text`` as it is, and with the canonical-key
    route switched off, so that every key goes through the ordered route."""
    bulk = _outcome(text)
    with mock.patch.object(gamefile, "_read_canonical", lambda *args: False):
        return bulk, _outcome(text)


def _awkward_key(key: str, rng) -> str:
    """The same coalition in a form only the ordered route reads: members
    out of order, blanks around them, or leading zeros."""
    members = key.split(",")
    rng.shuffle(members)
    form = rng.choice(("plain", "pad", "zero"))
    if form == "pad":
        members = [f" {m}" if rng.random() < 0.5 else f"{m} " for m in members]
    elif form == "zero":
        members = ["0" + m for m in members]
    return ",".join(members)


def _bad_worth(key: str, value) -> str:
    return f't.json: worth of {key!r} must be an integer or a "p/q" string, got {value!r}'


class TestCanonicalKeyRoute:
    """``gamefile._read_canonical`` reads a full table of canonical keys in
    bulk; every other file takes the ordered route, and both must agree."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 6), seed=st.integers(0, 10 ** 6), monotone=st.booleans())
    def test_awkward_keys_load_the_same_game(self, n, seed, monotone):
        rng = random.Random(seed)
        game = (random_monotone_tu if monotone else random_tu)(n, rng)
        doc = json.loads(dumps_game(game))
        awkward = [(_awkward_key(k, rng) if k else k, v) for k, v in doc["worth"].items()]
        rng.shuffle(awkward)
        with _bulk_taken() as taken:
            assert loads_game(json.dumps(doc)) == game
            doc["worth"] = dict(awkward)
            loaded = loads_game(json.dumps(doc))
        assert loaded == game
        assert (loaded.numerators, loaded.denominator) == (game.numerators, game.denominator)
        canonical = all(k == gamefile.coalition_key(map(int, k.split(","))) for k, _ in awkward if k)
        assert taken == [True, canonical]

    @pytest.mark.parametrize(
        "worth, want",
        [
            ({"": 0, "1": "1/2"}, Fraction(1, 2)),
            ({"1": "1/2", "": "0/3"}, Fraction(1, 2)),
            ({"": "5", "1": "1"}, "empty coalition has worth 5, must be 0"),
            ({"1": "1", "": "-1/2"}, "empty coalition has worth -1/2, must be 0"),
        ],
    )
    def test_explicit_empty_key_overrides_the_implied_zero(self, worth, want):
        text = json.dumps({"kind": "tu", "n": 1, "worth": worth})
        with _bulk_taken() as taken:
            bulk, ordered = _both_routes(text)
        assert taken == [True] and bulk == ordered
        if isinstance(want, str):
            assert bulk == (NonZeroEmptyCoalition, want)
        else:
            assert bulk[0].worth({1}) == want

    @pytest.mark.parametrize(
        "worth",
        [
            {"1": True, "2": 1, "1,2": 1},
            {"1": 1, "2": True, "1,2": 1},
            {"1": 1, "2": 1, "1,2": False},
            {"": True, "1": 1, "2": 1, "1,2": 1},
        ],
    )
    def test_true_is_not_one(self, worth):
        # a memo keyed by value alone would read true as the 1 beside it
        text = json.dumps({"kind": "tu", "n": 2, "worth": worth})
        with _bulk_taken() as taken:
            bulk, ordered = _both_routes(text)
        assert taken == [False] and bulk == ordered
        key, value = next((k, v) for k, v in worth.items() if type(v) is bool)
        assert bulk == (ParseError, _bad_worth(key, value))
        ones = json.dumps({"kind": "tu", "n": 2, "worth": {k: 1 for k in worth if k}})
        assert loads_game(ones).worth({1, 2}) == 1

    @pytest.mark.parametrize(
        "worth, message",
        [
            ({"1": [1], "2": 1, "1,2": 1}, _bad_worth("1", [1])),
            ({"1": 1, "2": {"a": 1}, "1,2": 1}, _bad_worth("2", {"a": 1})),
            ({"1": 1, "2": 1, "1,2": []}, _bad_worth("1,2", [])),
            ({"1": "1", "x": "1", "2": "a", "1,2": 1},
             "t.json: worth key 'x' is not a comma-separated member list"),
            ({"1": "1", "2, 1": "1", "2": "a", "1,2": 1}, "t.json: worth of '2' is not a rational: 'a'"),
            ({"1": "1", "2": "a", "x": "1", "1,2": 1}, "t.json: worth of '2' is not a rational: 'a'"),
            ({"1": "1/0", "2": "1/0", "1,2": 1}, "t.json: worth of '1' is not a rational: '1/0'"),
        ],
    )
    def test_first_failure_wins(self, worth, message):
        text = json.dumps({"kind": "tu", "n": 2, "worth": worth})
        bulk, ordered = _both_routes(text)
        assert bulk == ordered == (ParseError, message)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ParseError) as info:
            loads_game('{"kind": "mystery", "n": 1}')
        assert "jk" in str(info.value)

    def test_json_syntax_carries_position(self):
        with pytest.raises(ParseError) as info:
            loads_game("{\n  broken\n}")
        assert ":2:" in str(info.value)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"kind": "jk", "n": 1, "j": 2, "k": 2, "table": [0, 1], "table": [0, 0]}', "table"),
            ('{"kind": "tu", "n": 1, "worth": {"1": "1", "1": "2"}}', "1"),
        ],
        ids=["top-level", "nested"],
    )
    def test_duplicate_object_key(self, text, key):
        with pytest.raises(ParseError) as info:
            loads_game(text, path="g.json")
        assert str(info.value) == f"g.json: duplicate key {key!r}"

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            loads_game("[1, 2]")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_game(tmp_path / "missing.json")


def test_deterministic_serialization(example33):
    assert dumps_game(example33) == dumps_game(example33)
    text = dumps_game(example33)
    assert text.endswith("\n")
    assert loads_game(text) == example33


class _Pair(NamedTuple):
    x: object
    y: object


#: escapes, control and non-ASCII characters, beside arbitrary text
_awkward = ['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀", "a"]
_text = st.text() | st.lists(st.sampled_from(_awkward)).map("".join)
_plain_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 200), 2 ** 200) | _text
)


def _documents(scalars):
    """Nested documents as the package builds them: string keys, no floats."""
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.builds(_Pair, inner, inner)
        | st.lists(st.integers() | st.booleans())
        | st.lists(_text)
        | st.dictionaries(_text, inner),
        max_leaves=40,
    )


class TestEncoder:
    """The machine renderer's encoder writes what ``json.dumps`` with an
    indent of 2 writes, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_documents(_plain_scalars | st.fractions()))
    @example(doc={"a": [], "b": {}, "c": [True, 1, False], "d": (), "e": [2 ** 64, -(2 ** 70)]})
    @example(doc=[Fraction(1, 3), [Fraction(-7, 2)], {"q": Fraction(4)}])
    def test_matches_json_dumps(self, doc):
        assert _dumps(doc, _json_default) == json.dumps(doc, indent=2, default=_json_default)

    @settings(max_examples=100, deadline=None)
    @given(doc=_documents(_plain_scalars))
    def test_matches_json_dumps_without_default(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [object(), [1, Fraction(1, 2)], {"a": {"b": 0.5j}}])
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError) as ours:
            _dumps(doc)
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, indent=2)
        assert str(ours.value) == str(theirs.value)
