import json
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgindex import (
    AxiomResult,
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
from pgindex.cli import _json_default, main
from pgindex.errors import IncompleteTable, NonZeroEmptyCoalition
from pgindex.gamefile import _dumps, parse_rational
from pgindex.games import _check_exponent, all_coalitions

from conftest import DATA
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

    @pytest.mark.parametrize("position", [0, 13, 26], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("entry", ["true", "1.0", '"1"', "null"])
    def test_first_bad_entry_named(self, tmp_path, capsys, entry, position):
        # a later bad entry of another type is not the one named
        entries = ["0"] * 27
        entries[position] = entry
        if position < 26:
            entries[-1] = '"later"'
        text = '{"kind": "jk", "n": 3, "j": 3, "k": 2, "table": [' + ", ".join(entries) + "]}"
        message = f"table entries must be integers, got {json.loads(entry)!r}"
        with pytest.raises(ParseError) as info:
            loads_game(text, path="t.json")
        assert str(info.value) == f"t.json: {message}"
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_empty_table_reaches_the_length_check(self):
        with pytest.raises(IncompleteTable, match="got 0 entries, expected 2"):
            loads_game('{"kind": "jk", "n": 1, "j": 2, "k": 2, "table": []}')

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


def _outcome(text):
    try:
        game = loads_game(text, path="t.json")
    except GameError as exc:
        return type(exc), str(exc)
    return game, game.numerators, game.denominator


def _awkward_key(key: str, rng) -> str:
    """The same coalition, mostly in a form no canonical key has: members
    shuffled, blanks around them, or leading zeros."""
    members = key.split(",")
    rng.shuffle(members)
    form = rng.choice(("plain", "pad", "zero"))
    if form == "pad":
        members = [f" {m}" if rng.random() < 0.5 else f"{m} " for m in members]
    elif form == "zero":
        members = ["0" + m for m in members]
    return ",".join(members)


def _key(members) -> str:
    """The canonical worth key of a coalition ("1,3"), member by member."""
    return ",".join(str(i) for i in sorted(members))


def _bad_worth(key: str, value) -> str:
    return f't.json: worth of {key!r} must be an integer or a "p/q" string, got {value!r}'


class TestCanonicalKeyRoute:
    """Canonical keys ("1,3") are ranked by one lookup, any other form of a
    member list by its members; both load the same game, key by key, with
    each distinct worth read once."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 6), seed=st.integers(0, 10 ** 6), monotone=st.booleans())
    def test_awkward_keys_load_the_same_game(self, n, seed, monotone):
        rng = random.Random(seed)
        game = (random_monotone_tu if monotone else random_tu)(n, rng)
        doc = json.loads(dumps_game(game))
        assert loads_game(json.dumps(doc)) == game
        awkward = [(_awkward_key(k, rng) if k else k, v) for k, v in doc["worth"].items()]
        rng.shuffle(awkward)
        doc["worth"] = dict(awkward)
        loaded = loads_game(json.dumps(doc))
        assert loaded == game
        assert (loaded.numerators, loaded.denominator) == (game.numerators, game.denominator)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 5), seed=st.integers(0, 10 ** 6))
    def test_each_distinct_worth_read_once(self, n, seed):
        # canonical and awkward keys mixed; worths drawn from a few values
        # written as ints and strings, so 1 and "1" are two worths to read
        rng = random.Random(seed)
        pool = [0, 1, -2, "1", "0", "1/2", "2/4", "-3/7"]
        worth = {
            _awkward_key(key, rng) if key and rng.random() < 0.5 else key: rng.choice(pool)
            for key in map(_key, all_coalitions(n))
        }
        worth[""] = rng.choice((0, "0", "0/5"))
        calls, read = [], gamefile._read_pair

        def spy(value, *args):
            calls.append(value)
            return read(value, *args)

        with mock.patch.object(gamefile, "_read_pair", spy):
            game = loads_game(json.dumps({"kind": "tu", "n": n, "worth": worth}))
        distinct = list({(type(v), v): v for v in worth.values()}.values())
        assert [(type(v), v) for v in calls] == [(type(v), v) for v in distinct]
        for key, value in worth.items():
            members = [int(m) for m in key.split(",")] if key else []
            assert game.worth(members) == Fraction(value)

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
        outcome = _outcome(json.dumps({"kind": "tu", "n": 1, "worth": worth}))
        if isinstance(want, str):
            assert outcome == (NonZeroEmptyCoalition, want)
        else:
            assert outcome[0].worth({1}) == want

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
        key, value = next((k, v) for k, v in worth.items() if type(v) is bool)
        assert _outcome(text) == (ParseError, _bad_worth(key, value))
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
        assert _outcome(text) == (ParseError, message)


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


#: result records, rendered through the default: axiom results with Fraction
#: witnesses, each written as ``str`` of it
_axiom_results = st.builds(
    AxiomResult, _text, _text, _text, st.lists(st.tuples(st.integers(), st.fractions())).map(tuple)
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
    @given(doc=_documents(_plain_scalars | _axiom_results))
    @example(doc={"a": [], "b": {}, "c": [True, 1, False], "d": (), "e": [2 ** 64, -(2 ** 70)]})
    @example(doc=[AxiomResult("A2", "fail", "", (Fraction(1, 3),)), {"q": AxiomResult("", "", "")}])
    def test_matches_json_dumps(self, doc):
        assert _dumps(doc, _json_default) == json.dumps(doc, indent=2, default=_json_default)

    def test_a_bare_fraction_is_refused(self):
        # no document holds one: each command writes its rationals as text
        with pytest.raises(TypeError, match="cannot render Fraction"):
            _dumps([Fraction(1, 2)], _json_default)

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


#: texts that json.loads refuses, or reads in a way easy to get wrong
_JSON_CORPUS = {
    "empty": "",
    "blank": " \t\r\n ",
    "bom": '\ufeff{"kind": "jk"}',
    "bom after space": ' \ufeff{}',
    "trailing value": '{"a": 1} {}',
    "trailing text after lines": '{"a": 1}\n\n  x',
    "trailing vertical tab": '{"a": 1}\x0b',
    "no-break space first": "\xa0{}",
    "unclosed list": "[1, 2",
    "unclosed object": '{"a": [1, 2}',
    "list closed by brace": "[1}",
    "object closed by bracket": '{"a": 1]',
    "missing colon": '{"a" 1}',
    "trailing comma": "[1, 2,]",
    "leading comma": "{,}",
    "unquoted key": "{a: 1}",
    "bad escape": '{"a": "\\x"}',
    "control character in string": '{"a": "x\x01y"}',
    "raw newline in string": '["a\nb"]',
    "raw tab in key": '{"a\tb": 1}',
    "NaN": "NaN",
    "infinities": '{"w": [Infinity, -Infinity, NaN]}',
    "duplicate keys": '{"a": 1, "b": 2, "a": 3}',
    "nested duplicate keys": '{"x": {"k": [], "k": {}}}',
    "deep lists": "[" * 100_000 + "]" * 100_000,
    "deep objects": '{"a": ' * 100_000 + "1" + "}" * 100_000,
    "int beyond the digit limit": '{"n": ' + "9" * 5000 + "}",
    "negative int beyond the digit limit": "[-" + "1" * 4301 + "]",
    "numbers": "[0, -0, 1.5, -2e3, 1E+2, 10000000000000000000000]",
    "bad numbers": "[01]",
    "lone surrogate": '["\\ud800", "\\u00e9", "\u00e9"]',
    "literals": "[true, false, null]",
    "bad literal": "[tru]",
}


#: the characters of JSON's tokens and whitespace, and a few it refuses
_JSON_ALPHABET = ' \t\n\r\x0b{}[]:,"\\0123456789.eE+-truefalsnNaIiy\ufeff\x01'


def _json_outcome(read, text, hook):
    """What ``read(text, hook)`` returns or raises, comparably."""
    try:
        return "value", repr(read(text, hook))
    except json.JSONDecodeError as exc:
        return type(exc), exc.msg, exc.lineno, exc.colno
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _json_loads(text, hook):
    return json.loads(text, object_pairs_hook=hook)


class TestReader:
    """``gamefile._read_json`` against ``json.loads`` with the same
    ``object_pairs_hook``, its oracle twin: the same object (a list of
    pairs keeps repeated keys; ``repr`` tells 1 from 1.0 and keeps NaN), or
    the same error with the same message, line and column."""

    @pytest.mark.parametrize("hook", [list, dict])
    @pytest.mark.parametrize(
        "path", sorted(DATA.glob("*.json")), ids=lambda path: path.name
    )
    def test_data_files(self, path, hook):
        text = path.read_text(encoding="utf-8")
        ours = _json_outcome(gamefile._read_json, text, hook)
        assert ours[0] == "value"
        assert ours == _json_outcome(_json_loads, text, hook)

    @pytest.mark.parametrize("hook", [list, dict])
    @pytest.mark.parametrize("text", _JSON_CORPUS.values(), ids=_JSON_CORPUS.keys())
    def test_corpus(self, text, hook):
        assert _json_outcome(gamefile._read_json, text, hook) == _json_outcome(
            _json_loads, text, hook
        )

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=_JSON_ALPHABET, max_size=24))
    def test_random_texts(self, text):
        assert _json_outcome(gamefile._read_json, text, list) == _json_outcome(
            _json_loads, text, list
        )

    def test_hook_error_passes_through(self):
        def refuse(pairs):
            raise ParseError("g.json", f"refused {pairs!r}")

        with pytest.raises(ParseError, match=r"refused \[\('a', 1\)\]"):
            gamefile._read_json('[{"a": 1}]', refuse)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "g.json:1:1: Expecting value"),
            ('\ufeff{"kind": "jk"}', "g.json:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('{"kind": "jk"}\n x', "g.json:2:2: Extra data"),
            ('{"kind": \n[1,]}', "g.json:2:4: Expecting value"),
            ('{"kind": "a\x01"}', "g.json:1:12: Invalid control character at"),
            ('{"n": ' + "9" * 5000 + "}", "g.json: Exceeds the limit (4300 digits) for integer "
             "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
             "increase the limit"),
        ],
    )
    def test_parse_error_keeps_message_and_position(self, text, message):
        with pytest.raises(ParseError) as info:
            loads_game(text, path="g.json")
        assert str(info.value) == message
