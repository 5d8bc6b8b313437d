"""Reading and writing the JSON game-file format used by the CLI.

Three kinds: {"kind": "jk", "n", "j", "k", "table": [...]} (or "weighted":
{"weights": [...], "thresholds": [...]} instead of the table),
{"kind": "simple", "n", "winning": [[...], ...]} where the winning sets
may be minimal generators (upward closure is applied), and {"kind": "tu",
"n", "worth": {"1,3": "p/q", ...}} with comma-separated member keys and
the empty key implied as 0. Rationals are "p/q" strings or integers;
floats are rejected to keep everything exact.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .critical import minimal_winning_coalitions
from .errors import ParseError, ValidationError
from .games import (
    DEFAULT_CAP,
    JKGame,
    SimpleGame,
    TUGame,
    _check_players,
    _check_shape,
    _rank_filled,
    _rational_pair,
    all_coalitions,
    check_cap,
    make_table_game,
    make_weighted_game,
    simple_game_from_generators,
)

Game = JKGame | SimpleGame | TUGame


def rational_str(q: Fraction) -> str:
    """Canonical "p/q" (or "p" for integers) rendering."""
    return str(q)


def parse_rational(obj, path, what: str) -> Fraction:
    return Fraction(*_read_pair(obj, path, what))


def _read_pair(obj, path, what: str) -> tuple[int, int]:
    """The value of :func:`parse_rational` as its reduced numerator and
    denominator: a JSON int or string, read by the library's reader."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ParseError(path, f'{what} must be an integer or a "p/q" string, got {obj!r}')
    try:
        return _rational_pair(obj, what)
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from None


def _get_int(doc: dict, key: str, path) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, f'"{key}" must be an integer, got {value!r}')
    return value


def load_game(path, *, cap: int = DEFAULT_CAP) -> Game:
    """Load a game file; raises ParseError on malformed input and the
    usual validation errors on well-formed but invalid games."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, str(exc)) from None
    return loads_game(text, path=path, cap=cap)


def loads_game(text: str, *, path="<input>", cap: int = DEFAULT_CAP) -> Game:
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):  # find the first repeat
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(path, f"duplicate key {key!r}")
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.msg, line=exc.lineno, col=exc.colno) from None
    except (ValueError, RecursionError) as exc:
        # an integer beyond the digit limit, or nesting beyond the recursion limit
        raise ParseError(path, str(exc)) from None
    if not isinstance(doc, dict):
        raise ParseError(path, "top-level value must be an object")
    kind = doc.get("kind")
    if kind == "jk":
        return _load_jk(doc, path, cap)
    if kind == "simple":
        return _load_simple(doc, path, cap)
    if kind == "tu":
        return _load_tu(doc, path, cap)
    raise ParseError(path, f'unknown kind {kind!r}; expected "jk", "simple", or "tu"')


def _load_jk(doc: dict, path, cap: int) -> JKGame:
    n = _get_int(doc, "n", path)
    j = _get_int(doc, "j", path)
    k = _get_int(doc, "k", path)
    table = doc.get("table")
    weighted = doc.get("weighted")
    if (table is None) == (weighted is None):
        raise ParseError(path, 'exactly one of "table" and "weighted" is required')
    if table is not None:
        if not isinstance(table, list):
            raise ParseError(path, '"table" must be a list of output levels')
        for entry in table:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ParseError(path, f"table entries must be integers, got {entry!r}")
        return make_table_game(n, j, k, table, cap=cap)
    if not isinstance(weighted, dict):
        raise ParseError(path, '"weighted" must be an object with weights and thresholds')
    weights = weighted.get("weights")
    thresholds = weighted.get("thresholds")
    if not isinstance(weights, list) or not isinstance(thresholds, list):
        raise ParseError(path, '"weighted" needs "weights" and "thresholds" lists')
    game = make_weighted_game(
        [parse_rational(w, path, "weight") for w in weights],
        [parse_rational(t, path, "threshold") for t in thresholds],
        j,
        k,
        cap=cap,
    )
    if game.n != n:
        raise ParseError(path, f'"n" is {n} but there are {game.n} weights')
    return game


def _load_simple(doc: dict, path, cap: int) -> SimpleGame:
    n = _get_int(doc, "n", path)
    winning = doc.get("winning")
    if not isinstance(winning, list):
        raise ParseError(path, '"winning" must be a list of coalitions')
    for entry in winning:
        if not isinstance(entry, list):
            raise ParseError(path, f"coalitions must be lists of players, got {entry!r}")
        # any member but an int is an unknown player, refused below
        twice = [m for m, c in Counter(m for m in entry if type(m) is int).items() if c > 1]
        if twice:
            raise ParseError(path, f"winning coalition {entry!r} lists member {twice[0]} twice")
    return simple_game_from_generators(n, winning, cap=cap)


def _load_tu(doc: dict, path, cap: int) -> TUGame:
    """One pass from the keys to reduced integer pairs by rank. The first
    failure wins: key by key a malformed key, a coalition named twice or a bad
    worth; then n < 0, the cap, an unknown player, a missing coalition, and
    the checks of TUGame."""
    n = _get_int(doc, "n", path)
    worth = doc.get("worth")
    if not isinstance(worth, dict):
        raise ParseError(path, '"worth" must be an object keyed by member lists')
    # the ranks of the canonical keys ("1,3"), once the keys could fill the table;
    # until then every key takes the general route, in memory proportional to them
    fill = len(worth) + 1  # coalitions named at most, the empty one included
    canon, half = {}, n // 2
    if n >= 0 and fill >> n:
        high = [coalition_key(S) for S in all_coalitions(half)]
        low = [coalition_key(i + half for i in S) for S in all_coalitions(n - half)]
        tails = ["", *("," + q for q in low[1:])]
        canon = dict(zip(low + [h + t for h in high[1:] for t in tails], range(1 << n)))
    nums, dens = {0: 0}, {0: 1}  # "": 0 implied; an explicit "" overrides it
    bulk = canon and _read_canonical(canon, worth, path, nums, dens)
    names, general = {}, []
    for key, value in () if bulk else worth.items():
        rank = canon[key] if key in canon else _key_rank(key, path, canon)
        if rank in names:
            raise ParseError(
                path, f"worth keys {names[rank]!r} and {key!r} name the same coalition"
            )
        names[rank] = key
        if type(rank) is frozenset:
            general.append(rank)
        nums[rank], dens[rank] = _read_pair(value, path, f"worth of {key!r}")
    _check_shape(n, 2, 2)
    check_cap(n, 2, cap, "worth table would need {} entries")
    for members in general:
        _check_players(members, n)
    return _rank_filled(n, nums, dens)


def _read_canonical(canon: dict, worth: dict, path, nums: dict, dens: dict) -> bool:
    """Whether every key is in ``canon`` and every worth a JSON int or string
    that reads; if so ``nums`` and ``dens`` take each rank's pair, by one
    lookup per key and one read per distinct worth (``true`` is no int)."""
    ranks, values = [*map(canon.get, worth)], [*worth.values()]
    if None in ranks or not set(map(type, values)) <= {int, str}:
        return False
    try:
        read = {v: _read_pair(v, path, "worth") for v in set(values)}
    except ParseError:
        return False
    nums.update(zip(ranks, [read[v][0] for v in values]))
    dens.update(zip(ranks, [read[v][1] for v in values]))
    return True


def _key_rank(key: str, path, canon: dict[str, int]) -> int | frozenset[int]:
    """The rank of a worth key in any form ``int`` reads (" 1", "01", "") by its
    members' ranks in ``canon``, or its members' frozenset if one has none."""
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
    try:
        return sum(canon[str(member)] for member in members)
    except KeyError:
        return frozenset(members)


# ---------------------------------------------------------------------------
# writing


def coalition_key(coalition) -> str:
    return ",".join(str(i) for i in sorted(coalition))


def game_to_dict(game: Game) -> dict:
    """Game-file document for any of the three kinds."""
    if isinstance(game, JKGame):
        doc = {"kind": "jk", "n": game.n, "j": game.j, "k": game.k}
        if game.provenance is not None:
            doc["weighted"] = {
                "weights": [rational_str(w) for w in game.provenance.weights],
                "thresholds": [rational_str(t) for t in game.provenance.thresholds],
            }
        else:
            doc["table"] = list(game.levels)
        return doc
    if isinstance(game, SimpleGame):
        generators = sorted(
            (sorted(S) for S in minimal_winning_coalitions(game)),
            key=lambda members: (len(members), members),
        )
        return {"kind": "simple", "n": game.n, "winning": generators}
    if isinstance(game, TUGame):
        worth = {
            coalition_key(S): rational_str(w)
            for S, w in zip(all_coalitions(game.n), game.worths)
        }
        return {"kind": "tu", "n": game.n, "worth": worth}
    raise TypeError(f"cannot serialize {type(game).__name__}")


def dumps_game(game: Game) -> str:
    return _dumps(game_to_dict(game)) + "\n"


def dump_game(game: Game, path) -> None:
    Path(path).write_text(dumps_game(game), encoding="utf-8")


def _dumps(obj, default=None, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, default=default)``, byte for byte, on the
    documents the package writes (string keys, no floats), built by joins:
    with an indent, ``json`` runs its pure-Python encoder, one generator
    per value. Types are tested in ``json``'s order, so bool, tuple and
    dict subclasses render as there, and a list of ints only or of strings
    only is joined in one call. ``pad`` is the newline and indent before
    the closing bracket of ``obj``. ``default`` gives any other object a
    value to encode, or a function of the pad that returns its JSON text."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        elif all(type(v) is str for v in obj):
            items = map(encode_basestring_ascii, obj)
        else:
            items = (_dumps(v, default, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            encode_basestring_ascii(k) + ": " + _dumps(v, default, inner) for k, v in obj.items()
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if default is None:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    value = default(obj)
    return value(pad) if callable(value) else _dumps(value, default, pad)
