"""Command-line interface: load game files, run analyses, render reports.

Commands: analyze, mcv, potential, merge, average, axioms, embed. Each
command computes its results once and builds one document: a dict that
holds the result objects themselves, rendered as deterministic JSON with
--format machine, and the human table blocks beside it (the default;
analyze and mcv build them for that format only).
Exit status 0 on success, 1 on domain/validation errors, 2 on usage
errors.
"""

from __future__ import annotations

import io
import sys
from itertools import chain

from .critical import (
    CoalitionSet,
    MCVSet,
    _check_oracle_cap,
    _listing,
    _real_gaining,
    minimal_critical_vectors_oracle,
)
from .errors import (
    GameError,
    OracleCapExceeded,
    TrivialGame,
    ValidationError,
)
from .gamefile import _dumps, _rational_texts, dumps_game, game_to_dict, load_game
from .games import (
    DEFAULT_CAP,
    JKGame,
    SimpleGame,
    TUGame,
    _kept,
    _Record,
    _coalitions,
    _levels,
    _rank_texts,
    _rational_str,
    _witness_str,
    all_coalitions,
    check_cap,
    coalition_of_profile,
    embed_2k_as_tu,
    embed_simple,
)
from .indices import (
    IndexReport,
    _recursive_potential,
    _tally,
    normalized_variant,
    pgi_normalized,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    variant_value,
)

MAX_WITNESSES = 10


class AnalysisRequest(_Record):
    """One parsed invocation."""

    command: str
    input_paths: tuple[str, ...]
    format: str = "table"
    family: str = "mcc"
    oracle: bool = False
    cap: int = DEFAULT_CAP


# ---------------------------------------------------------------------------
# rendering


def _frac_table(p: int, d: int) -> str:
    """The table cell of the rational p/d, d > 0: its text and, unless it is
    an integer, ``p / d`` to six decimals, as ``float(Fraction(p, d))``
    computes it."""
    text = _rational_str(p, d)
    if p % d == 0:
        return text
    try:
        approx = f"{p / d:.6f}"
    except OverflowError:  # beyond the float range: seven significant digits
        from decimal import Context, Decimal

        approx = f"{Context(prec=7).divide(Decimal(p), Decimal(d)):.6e}"
    return f"{text} (~{approx})"


def _profile_str(x) -> str:
    return "(" + ",".join(map(str, x)) + ")"


def _aligned(rows) -> list[str]:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return [
        "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _listing_texts(listing, sep: str, render) -> tuple[str, Iterator[str], Iterable[str]]:
    """A listing's head; each listed vector's levels or coalition's members,
    joined by ``sep``; and each worth's text, a coalition's p/d by ``render``."""
    n, j, ranks = (listing.__dict__[key] for key in ("_n", "_j", "_ranks"))
    if isinstance(listing, MCVSet):
        return "vector", _rank_texts(n, j, ranks, sep, _levels), map(str, listing.worths)
    return "coalition", _rank_texts(n, j, ranks, sep), _rational_texts(listing, "worths", render)


def _listing_rows(listing, title: str) -> list[str]:
    if not len(listing):
        return [f"no {title}"]
    head, items, worths = _listing_texts(listing, ",", _frac_table)
    cells = [*map(("(%s)" if head == "vector" else "{%s}").__mod__, items)]
    row = f"  %-{max(len(head), *map(len, cells))}s  %s"  # _aligned's, as no worth is blank
    return [f"{title} ({len(listing)})", *map(row.__mod__, [(head, "worth"), *zip(cells, worths)])]


def _listing_json(listing, pad: str) -> str:
    """``_dumps`` at ``pad`` of rows {"vector": x, "worth": w} or {"coalition":
    sorted(S), "worth": str(w)}, by one template of all rows; kept on the
    listing by pad, so that the reports sharing it encode it once."""
    cache = listing.__dict__.setdefault("_json", {})
    if pad in cache or not len(listing):
        return cache.get(pad, "[]")
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    render = lambda p, d: _dumps(_rational_str(p, d))  # a coalition worth as a JSON string
    head, items, worths = _listing_texts(listing, "," + i3, render)
    row = f'{{{i2}"{head}": [{i3}%s{i2}],{i2}"worth": %s{i1}}}'
    flat = tuple(chain.from_iterable(zip(items, worths)))
    text = cache[pad] = "[" + i1 + ("," + i1).join([row] * len(listing)) % flat + pad + "]"
    return text


def _game_heading(game) -> str:
    if isinstance(game, JKGame):
        head = f"({game.j},{game.k}) game on {game.n} players"
        if game.provenance is not None:
            weights = ", ".join(_rational_texts(game.provenance, "weights"))
            thresholds = ", ".join(_rational_texts(game.provenance, "thresholds"))
            head += f"\nrule: weights {weights}; thresholds {thresholds}"
        return head
    if isinstance(game, SimpleGame):
        return f"simple game on {game.n} players"
    tone = "monotone" if game.monotone else "not monotone"
    return f"TU game on {game.n} players ({tone})"


def _values_table(reports: list[IndexReport]) -> list[str]:
    columns = [_rational_texts(r, "player_values", _frac_table) for r in reports]
    rows = [("player",) + tuple(r.variant for r in reports)]
    rows += zip(map(str, reports[0].players), *columns)
    return _aligned(rows)


def _json_default(obj):
    """The JSON form of every result object a machine document holds (a
    comparison's average game is the document's "average_game"); a record's
    rational field is its text, read from its kept integers. A document
    holds no bare Fraction: each command writes its rationals as text."""
    if isinstance(obj, (JKGame, SimpleGame, TUGame)):
        return _game_json(obj)
    if isinstance(obj, (MCVSet, CoalitionSet)):  # JSON text, by the pad
        return lambda pad: _listing_json(obj, pad)
    if isinstance(obj, _Record):  # an index report, a comparison or an axiom result
        fields = {}
        for f in obj._fields:
            if f == "witnesses":  # an axiom result's: kept as ints and (p, d) pairs, or given
                rows = obj.__dict__.get("_ints", {}).get(f)
                texts = map(str, obj.witnesses) if rows is None else map(_witness_str, rows)
                fields[f] = [*texts]
            elif f in obj._rational:
                nums, d = _kept(obj, f)
                fields[f] = _rational_str(nums, d) if type(nums) is int else _rational_texts(obj, f)
            elif f != "average":
                fields[f] = getattr(obj, f)
        return fields
    raise TypeError(f"cannot render {type(obj).__name__}")


def _game_json(game) -> dict:
    if isinstance(game, JKGame):
        return {"kind": "jk", "n": game.n, "j": game.j, "k": game.k, "players": list(game.labels)}
    if isinstance(game, SimpleGame):
        return {"kind": "simple", "n": game.n, "players": list(game.players())}
    return {"kind": "tu", "n": game.n, "monotone": game.monotone, "players": list(game.labels)}


def _render(request: AnalysisRequest, doc: dict, blocks: list[list[str]]) -> str:
    """The machine document as JSON, or the table blocks separated by
    blank lines, closed by the document's oracle cross-check if it has one."""
    if request.format == "machine":
        return _dumps(doc, _json_default) + "\n"
    if "oracle_agrees" in doc:
        agrees = doc["oracle_agrees"]
        verdict = "agrees" if agrees else "DISAGREES"
        if agrees is None:
            verdict = f"skipped ({doc['oracle_note']})"
        blocks = [*blocks, [f"oracle cross-check: {verdict}"]]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


# ---------------------------------------------------------------------------
# command handlers: (games, request) -> (text, errmsg | None); an error
# message means exit status 1 after the text is written


def _title(game, family: str) -> str:
    if isinstance(game, JKGame):
        return "minimal critical vectors"
    if isinstance(game, SimpleGame):
        return "minimal winning coalitions"
    return "minimal critical coalitions" if family == "mcc" else "real gaining coalitions"


def _reports(game, family: str):
    """The index reports of any game class, and the error that kept the
    normalized one out (the constant-0 game has none)."""
    if isinstance(game, TUGame):
        return [pgv_tu(game, family)], None
    jk = isinstance(game, JKGame)
    reports = [public_good_value_jk(game), variant_value(game)] if jk else [pgi_raw(game)]
    try:
        reports.append(normalized_variant(game) if jk else pgi_normalized(game))
    except TrivialGame as exc:
        return reports, str(exc)
    return reports, None


def _oracle(game, listing):
    """Check ``listing`` by an independent route: (agrees or None when
    skipped, note naming the route or the reason for skipping)."""
    try:
        if isinstance(game, JKGame):
            return minimal_critical_vectors_oracle(game) == listing, "full down-set scan"
        if isinstance(game, SimpleGame):
            _check_oracle_cap(game.n, 2)  # before the embedding derives the table
            oracle_mcv = minimal_critical_vectors_oracle(embed_simple(game))
            image = frozenset(coalition_of_profile(x) for x in oracle_mcv.vectors)
            return image == frozenset(listing.coalitions), "via the (2,2) embedding"
    except OracleCapExceeded as exc:
        return None, str(exc)
    # on monotone TU games the minimal critical and real gaining families coincide
    if not game.monotone:
        return None, "no independent route for non-monotone games"
    literal = _coalitions(game.n, _real_gaining(game.n, game.numerators))
    return _listing(game).coalitions == literal, "minimal critical vs real gaining"


def _cmd_analyze(games, request: AnalysisRequest):
    reports, error = _reports(games[0], request.family)
    return _structure_doc(games[0], request, reports[0].listing, reports, error)


def _cmd_mcv(games, request: AnalysisRequest):
    return _structure_doc(games[0], request, _listing(games[0], request.family))


def _structure_doc(game, request: AnalysisRequest, listing, reports=None, error=None):
    """The document of ``mcv`` (the listing) and of ``analyze`` (the
    listing inside the reports): heading, listing, reports, oracle."""
    doc = {"command": request.command, "game": game}
    if isinstance(game, TUGame):
        doc["family"] = request.family
    if reports is None:
        doc["listing"] = listing
    else:
        doc["reports"] = reports
        doc["error"] = error
    if request.oracle:
        doc["oracle_agrees"], doc["oracle_note"] = _oracle(game, listing)
    if request.format == "machine":  # the table blocks are for the table format only
        return _render(request, doc, []), error
    blocks = [[_game_heading(game)], _listing_rows(listing, _title(game, request.family))]
    if reports is not None:
        if not isinstance(game, SimpleGame):
            blocks.append([
                f"potential = {_frac_table(*_kept(reports[0], 'potential'))}",
                f"distributed total = {_frac_table(*_kept(reports[0], 'lambda_total'))}",
            ])
        blocks.append(_values_table(reports))
    return _render(request, doc, blocks), error


def _cmd_potential(games, request: AnalysisRequest):
    game = games[0]  # a simple game's potential is that of its (2,2) embedding
    note = "via the (2,2) embedding" if isinstance(game, SimpleGame) else None
    direct = _kept(_tally(game)[0], "potential")
    recursive = None if isinstance(game, TUGame) else _recursive_potential(game)
    match = recursive and direct[0] * recursive[1] == recursive[0] * direct[1]
    doc = {
        "command": "potential",
        "game": game,
        "potential": _rational_str(*direct),
        "recursive": recursive and _rational_str(*recursive),
        "match": match,
        "note": note,
    }
    lines = [f"({note})"] if note else []
    lines.append(f"potential (direct)    = {_frac_table(*direct)}")
    if recursive:
        lines.append(f"potential (recursive) = {_frac_table(*recursive)}")
        lines.append(f"routes agree: {'yes' if match else 'NO'}")
    if request.oracle:  # on the listing the potential sums
        doc["oracle_agrees"], doc["oracle_note"] = _oracle(game, _listing(game))
    return _render(request, doc, [[_game_heading(game)], lines]), None


def _require_jk(games, command: str) -> list[JKGame]:
    for game in games:
        if not isinstance(game, JKGame):
            raise ValidationError(f'{command} works on "jk" game files only')
    return games


def _cmd_merge(games, request: AnalysisRequest):
    from .algebra import _union_holds, is_mergeable  # here, as the other commands skip algebra

    v, w = _require_jk(games, "merge")
    report = is_mergeable(v, w)
    union = _union_holds(v, w) if report.mergeable else None
    doc = {
        "command": "merge",
        "games": [v, w],
        "mergeable": report.mergeable,
        "violations": [item._asdict() for item in report.violations],
        "union_check": union,
    }
    lines = [f"mergeable: {'yes' if report.mergeable else 'no'}"]
    if report.violations:
        lines.append(f"violations ({len(report.violations)})")
        rows = [("x", "y", "clause")]
        rows += [
            (_profile_str(item.x), _profile_str(item.y), item.clause)
            for item in report.violations[:MAX_WITNESSES]
        ]
        lines += _aligned(rows)
        hidden = len(report.violations) - MAX_WITNESSES
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
    if union is not None:
        lines.append(f"union lemma verified: {'yes' if union else 'NO'}")
    return _render(request, doc, [[_game_heading(v), _game_heading(w)], lines]), None


def _cmd_axioms(games, request: AnalysisRequest):
    from .algebra import axiom_report

    games = _require_jk(games, "axioms")
    v, w = (*games, None)[:2]
    report = axiom_report(v, w)
    doc = {"command": "axioms", "game": v, "second_game": w, "axioms": report.results}
    rows = [("axiom", "status", "detail")]
    rows += [(r.axiom, r.status, r.detail) for r in report.results]
    headings = [_game_heading(g) for g in games]
    return _render(request, doc, [headings, _aligned(rows)]), None


def _cmd_average(games, request: AnalysisRequest):
    from .average import average_worth_oracle, compare_pgv_vs_jk  # here, as for algebra

    (game,) = _require_jk(games, "average")
    if request.oracle:
        check_cap(game.n, game.j + 1, request.cap, "the oracle would take {} evaluations")
    comparison = compare_pgv_vs_jk(game)
    result = comparison.average
    doc = {
        "command": "average",
        "game": game,
        "scale": _rational_str(*_kept(result, "scale")),
        "average_game": game_to_dict(result.tu),
        "comparison": comparison,
    }
    keys = map("{%s}".__mod__, doc["average_game"]["worth"])  # its texts, in rank order
    worths = [("coalition", "worth"), *zip(keys, _rational_texts(result.tu, "worths", _frac_table))]
    reports = [comparison.pgv_of_average, comparison.jk_value, comparison.variant]
    verdict = _values_table(reports)
    equal = "yes" if comparison.equal_after_normalization else "no"
    verdict.append(f"equal after normalization: {equal}")
    if comparison.degenerate:
        verdict.append("comparison degenerate: constant-0 game")
    scale = [f"scale = {doc['scale']}", *_aligned(worths)]
    if request.oracle:
        doc["oracle_agrees"] = all(
            w == average_worth_oracle(game, S)
            for S, w in zip(all_coalitions(game.n), result.tu.worths)
        )
    return _render(request, doc, [[_game_heading(game)], scale, verdict]), None


def _cmd_embed(games, request: AnalysisRequest):
    game = games[0]
    if isinstance(game, SimpleGame):
        embedded = embed_simple(game)
    elif isinstance(game, JKGame):
        embedded = embed_2k_as_tu(game)
    else:
        raise ValidationError("TU games have no further embedding here")
    return dumps_game(embedded), None


#: (name, game files, help, handler) of each command, in the help's order
_COMMANDS = (
    ("analyze", 1, "all applicable index reports for the game", _cmd_analyze),
    ("mcv", 1, "the minimal critical structure with worths", _cmd_mcv),
    ("potential", 1, "direct and recursive potential", _cmd_potential),
    ("merge", 2, "mergeability report and union-lemma check", _cmd_merge),
    ("average", 1, "average-game reduction and value comparison", _cmd_average),
    ("axioms", "+", "axiom checks (give a second game for the merge axiom)", _cmd_axioms),
    ("embed", 1, "write the (2,2) or TU embedding as a game file", _cmd_embed),
)
_HANDLERS = {name: handler for name, _, _, handler in _COMMANDS}


# ---------------------------------------------------------------------------
# driver


def run(
    request: AnalysisRequest, out: io.TextIOBase | None = None, err: io.TextIOBase | None = None
) -> int:
    """Execute one request, writing the report to ``out`` (default stdout)."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        handler = _HANDLERS[request.command]
        games = [load_game(p, cap=request.cap) for p in request.input_paths]
        text, errmsg = handler(games, request)
    except GameError as exc:
        err.write(f"error: {exc}\n")
        witnesses = getattr(exc, "witnesses", ())
        for witness in witnesses[:MAX_WITNESSES]:
            err.write(f"  witness: {witness}\n")
        if len(witnesses) > MAX_WITNESSES:
            err.write(f"  ... and {len(witnesses) - MAX_WITNESSES} more\n")
        return 1
    except MemoryError:  # a table beyond what memory holds, under a raised --cap
        err.write("error: out of memory\n")
        return 1
    out.write(text)
    if errmsg is None:
        return 0
    err.write(f"error: {errmsg}\n")
    return 1


#: every option: its choices, or the reader of its value (bool: a flag,
#: with none), and its help; each sets the request field of its name but
#: --output, main's target, and each default is the request's
_OPTIONS = {
    "--format": (("table", "machine"), "human table or deterministic JSON (default: %(default)s)"),
    "--family": (("mcc", "rgc"), "TU coalition family (default: %(default)s)"),
    "--output": (str, "write the report here instead of stdout"),
    "--oracle": (bool, "run brute-force cross-checks and report agreement"),
    "--cap": (int, "override the enumeration cap (default: 2**24)"),
}
#: (fewest, most) game files of each command; axioms takes "+" but two at most
_ARITY = {name: (1, 2) if nargs == "+" else (nargs, nargs) for name, nargs, _, _ in _COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, as a canonical argv never needs it (see _accept)

    parser = argparse.ArgumentParser(
        prog="pgindex",
        description="Public Good indices and values for simple, TU, and (j,k) simple games.",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag, (read, help_text) in _OPTIONS.items():
        if read is bool:
            how = {"action": "store_true"}
        else:
            how = {"choices" if isinstance(read, tuple) else "type": read}
        default = AnalysisRequest._defaults.get(flag[2:])
        common.add_argument(flag, default=default, help=help_text, **how)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, nargs, help_text, _ in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        sub.add_argument("paths", nargs=nargs, metavar="GAME")
    return parser


def _request(command: str, paths, options: dict) -> tuple[AnalysisRequest, str | None] | None:
    """The request and output path of the option values read, by field
    name, or None when the cap is not positive."""
    output = options.pop("output", None)
    request = AnalysisRequest(command, tuple(paths), **options)
    return (request, output) if request.cap > 0 else None


def _accept(argv: list[str]) -> tuple[AnalysisRequest, str | None] | None:
    """The request and output path of a canonical argv, or None.

    Canonical: the command, then one contiguous run of game files within
    its arity, and around it each option of ``_OPTIONS`` at most once,
    spelled out in full, with a separate value that does not start with
    "-" (one of the choices, or what the reader reads; a positive cap).
    argparse reads such an argv the same way (tests/test_cli.py compares
    the two); any other argv, help and every usage error included, goes to
    :func:`build_parser`, which a canonical one never imports."""
    if not argv or argv[0] not in _ARITY:
        return None
    options, paths, closed = {}, [], False
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] not in ("", "-"):  # a game file
            if closed:
                return None
            paths.append(token)
            continue
        closed = bool(paths)  # an option after the game files ends their run
        if token not in _OPTIONS or token[2:] in options:
            return None
        read = _OPTIONS[token][0]
        if read is bool:
            options[token[2:]] = True
            continue
        value = next(tokens, "")
        if value[:1] in ("", "-") or isinstance(read, tuple) and value not in read:
            return None
        try:  # as argparse's type= reads it
            options[token[2:]] = value if isinstance(read, tuple) else read(value)
        except ValueError:
            return None
    fewest, most = _ARITY[argv[0]]
    return _request(argv[0], paths, options) if fewest <= len(paths) <= most else None


def _parse(argv) -> tuple[AnalysisRequest, str | None]:
    """The request and output path by argparse, which prints help and exits
    2 on every usage error."""
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    command, paths = options.pop("command"), options.pop("paths")
    if command == "axioms" and len(paths) > 2:
        parser.error("axioms takes one game plus an optional second game")  # exits 2
    return _request(command, paths, options) or parser.error("--cap must be positive")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    request, output = _accept(argv) or _parse(argv)
    if output is None:
        return run(request)
    # the report is built before the target is opened, which may be an input
    report = io.StringIO()
    status = run(request, out=report)
    if report.getvalue():
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(report.getvalue())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return status
