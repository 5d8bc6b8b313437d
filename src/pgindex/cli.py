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
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Iterator, TextIO

from .algebra import AxiomResult, _union_holds, axiom_report, is_mergeable
from .average import ValueComparison, average_worth_oracle, compare_pgv_vs_jk
from .critical import (
    CoalitionSet,
    MCVSet,
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
from .gamefile import _coalition_keys, _dumps, dumps_game, game_to_dict, load_game
from .games import (
    DEFAULT_CAP,
    JKGame,
    SimpleGame,
    TUGame,
    _Record,
    _coalitions,
    all_coalitions,
    check_cap,
    coalition_of_profile,
    embed_2k_as_tu,
    embed_simple,
)
from .indices import (
    IndexReport,
    jk_potential,
    jk_potential_recursive,
    normalized_variant,
    pgi_normalized,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    tu_potential,
    variant_value,
)

if TYPE_CHECKING:
    import argparse

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


def _frac_table(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q)
    try:
        approx = f"{float(q):.6f}"
    except OverflowError:  # beyond the float range: seven significant digits
        from decimal import Context, Decimal  # here, so that startup skips it

        approx = f"{Context(prec=7).divide(Decimal(q.numerator), Decimal(q.denominator)):.6e}"
    return f"{q} (~{approx})"


def _profile_str(x) -> str:
    return "(" + ",".join(map(str, x)) + ")"


def _coalition_str(S) -> str:
    return "{" + ",".join(map(str, sorted(S))) + "}"


def _aligned(rows) -> list[str]:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return [
        "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _listing_rows(listing, title: str) -> list[str]:
    if not len(listing):
        return [f"no {title}"]
    if isinstance(listing, MCVSet):
        head, cells = "vector", [*map(_profile_str, listing.vectors)]
        worths = map(str, listing.worths)
    else:
        head, cells = "coalition", [*map(_coalition_str, listing.coalitions)]
        worths = _each_worth(listing.worths, _frac_table)
    row = f"  %-{max(len(head), *map(len, cells))}s  %s"  # _aligned's, as no worth is blank
    return [f"{title} ({len(listing)})", *map(row.__mod__, [(head, "worth"), *zip(cells, worths)])]


def _each_worth(worths, render) -> Iterator[str]:
    """``map(render, worths)``, by object: a ``Fraction`` hashes slowly."""
    text = {key: render(w) for key, w in dict(zip(map(id, worths), worths)).items()}
    return map(text.__getitem__, map(id, worths))


def _listing_json(listing, pad: str) -> str:
    """``_dumps`` at ``pad`` of rows {"vector": x, "worth": w} or {"coalition":
    sorted(S), "worth": str(w)}, by one template of all rows; kept on the
    listing by pad, so that the reports sharing it encode it once."""
    cache = listing.__dict__.setdefault("_json", {})
    if pad in cache or not len(listing):
        return cache.get(pad, "[]")
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    if isinstance(listing, MCVSet):
        field = ("," + i3).join(["%d"] * len(listing.vectors[0]))
        row = f'{{{i2}"vector": [{i3}{field}{i2}],{i2}"worth": %d{i1}}}'
        flat = chain.from_iterable(map(tuple.__add__, listing.vectors, zip(listing.worths)))
    else:
        row = f'{{{i2}"coalition": [{i3}%s{i2}],{i2}"worth": %s{i1}}}'
        members = [("," + i3).join(map(str, sorted(S))) for S in listing.coalitions]
        worths = _each_worth(listing.worths, lambda w: _dumps(str(w)))
        flat = chain.from_iterable(zip(members, worths))
    text = cache[pad] = "[" + i1 + ("," + i1).join([row] * len(listing)) % tuple(flat) + pad + "]"
    return text


def _game_heading(game) -> str:
    if isinstance(game, JKGame):
        head = f"({game.j},{game.k}) game on {game.n} players"
        if game.provenance is not None:
            weights = ", ".join(str(w) for w in game.provenance.weights)
            thresholds = ", ".join(str(t) for t in game.provenance.thresholds)
            head += f"\nrule: weights {weights}; thresholds {thresholds}"
        return head
    if isinstance(game, SimpleGame):
        return f"simple game on {game.n} players"
    tone = "monotone" if game.monotone else "not monotone"
    return f"TU game on {game.n} players ({tone})"


def _values_table(reports: list[IndexReport]) -> list[str]:
    rows = [("player",) + tuple(r.variant for r in reports)]
    for pos, label in enumerate(reports[0].players):
        rows.append(
            (str(label),) + tuple(_frac_table(r.player_values[pos]) for r in reports)
        )
    return _aligned(rows)


def _oracle_line(agrees: bool | None, note: str | None = None) -> str:
    if agrees is None:
        return f"oracle cross-check: skipped ({note})"
    return f"oracle cross-check: {'agrees' if agrees else 'DISAGREES'}"


def _json_default(obj):
    """The JSON form of every result object a machine document holds (a
    comparison's average game is the document's "average_game")."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (JKGame, SimpleGame, TUGame)):
        return _game_json(obj)
    if isinstance(obj, (MCVSet, CoalitionSet)):  # JSON text, by the pad
        return lambda pad: _listing_json(obj, pad)
    if isinstance(obj, (IndexReport, ValueComparison, AxiomResult)):
        fields = {f: v for f, v in zip(obj._fields, obj._values()) if f != "average"}
        if isinstance(obj, AxiomResult):
            fields["witnesses"] = [str(w) for w in obj.witnesses]
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
    blank lines."""
    if request.format == "machine":
        return _dumps(doc, _json_default) + "\n"
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
                f"potential = {_frac_table(reports[0].potential)}",
                f"distributed total = {_frac_table(reports[0].lambda_total)}",
            ])
        blocks.append(_values_table(reports))
    if request.oracle:
        blocks.append([_oracle_line(doc["oracle_agrees"], doc["oracle_note"])])
    return _render(request, doc, blocks), error


def _cmd_potential(games, request: AnalysisRequest):
    game, note = games[0], None
    if isinstance(game, SimpleGame):
        game, note = embed_simple(game), "via the (2,2) embedding"
    jk = isinstance(game, JKGame)
    direct = jk_potential(game) if jk else tu_potential(game)
    recursive = jk_potential_recursive(game, cap=request.cap) if jk else None
    match = direct == recursive if jk else None
    doc = {
        "command": "potential",
        "game": games[0],
        "potential": direct,
        "recursive": recursive,
        "match": match,
        "note": note,
    }
    lines = [f"({note})"] if note else []
    lines.append(f"potential (direct)    = {_frac_table(direct)}")
    if recursive is not None:
        lines.append(f"potential (recursive) = {_frac_table(recursive)}")
        lines.append(f"routes agree: {'yes' if match else 'NO'}")
    blocks = [[_game_heading(games[0])], lines]
    if request.oracle:  # on the listing the potential sums
        doc["oracle_agrees"], doc["oracle_note"] = _oracle(game, _listing(game))
        blocks.append([_oracle_line(doc["oracle_agrees"], doc["oracle_note"])])
    return _render(request, doc, blocks), None


def _require_jk(games, command: str) -> list[JKGame]:
    for game in games:
        if not isinstance(game, JKGame):
            raise ValidationError(f'{command} works on "jk" game files only')
    return games


def _cmd_merge(games, request: AnalysisRequest):
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
    games = _require_jk(games, "axioms")
    v = games[0]
    w = games[1] if len(games) > 1 else None
    report = axiom_report(v, w)
    doc = {
        "command": "axioms",
        "game": v,
        "second_game": w,
        "axioms": report.results,
    }
    rows = [("axiom", "status", "detail")]
    rows += [(r.axiom, r.status, r.detail) for r in report.results]
    headings = [_game_heading(g) for g in games]
    return _render(request, doc, [headings, _aligned(rows)]), None


def _cmd_average(games, request: AnalysisRequest):
    (game,) = _require_jk(games, "average")
    if request.oracle:
        check_cap(game.n, game.j + 1, request.cap, "the oracle would take {} evaluations")
    comparison = compare_pgv_vs_jk(game, cap=request.cap)
    result = comparison.average
    doc = {
        "command": "average",
        "game": game,
        "scale": result.scale,
        "average_game": game_to_dict(result.tu),
        "comparison": comparison,
    }
    keys = ["{" + key + "}" for key in _coalition_keys(result.tu.n)]
    worths = [("coalition", "worth"), *zip(keys, map(_frac_table, result.tu.worths))]
    reports = [comparison.pgv_of_average, comparison.jk_value, comparison.variant]
    verdict = _values_table(reports)
    verdict.append(
        "equal after normalization: "
        + ("yes" if comparison.equal_after_normalization else "no")
    )
    if comparison.degenerate:
        verdict.append("comparison degenerate: constant-0 game")
    scale = [f"scale = {result.scale}"] + _aligned(worths)
    blocks = [[_game_heading(game)], scale, verdict]
    if request.oracle:
        doc["oracle_agrees"] = all(
            w == average_worth_oracle(game, S)
            for S, w in zip(all_coalitions(game.n), result.tu.worths)
        )
        blocks.append([_oracle_line(doc["oracle_agrees"])])
    return _render(request, doc, blocks), None


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
    request: AnalysisRequest, out: TextIO | None = None, err: TextIO | None = None
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
    out.write(text)
    if errmsg is None:
        return 0
    err.write(f"error: {errmsg}\n")
    return 1


#: the choices of the options that have them
_CHOICES = {"--format": ("table", "machine"), "--family": ("mcc", "rgc")}
#: (fewest, most) game files of each command; axioms takes "+" but two at most
_ARITY = {name: (1, 2) if nargs == "+" else (nargs, nargs) for name, nargs, _, _ in _COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, as a canonical argv never needs it (see _accept)

    parser = argparse.ArgumentParser(
        prog="pgindex",
        description="Public Good indices and values for simple, TU, and (j,k) simple games.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=_CHOICES["--format"], default="table",
        help="human table or deterministic JSON (default: table)",
    )
    common.add_argument(
        "--family", choices=_CHOICES["--family"], default="mcc",
        help="TU coalition family (default: mcc)",
    )
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument(
        "--oracle", action="store_true",
        help="run brute-force cross-checks and report agreement",
    )
    common.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help="override the enumeration cap (default: 2**24)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, nargs, help_text, _ in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        sub.add_argument("paths", nargs=nargs, metavar="GAME")
    return parser


def _accept(argv: list[str]) -> tuple[AnalysisRequest, str | None] | None:
    """The request and output path of a canonical argv, or None.

    Canonical: the command, then one contiguous run of game files within
    its arity, and around it each option at most once, spelled out in
    full, with a separate value that does not start with "-" (one of the
    choices, or for --cap what ``int`` reads as positive). argparse reads
    such an argv the same way (tests/test_cli.py compares the two); any
    other argv, help and every usage error included, goes to
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
        if token in options:
            return None
        if token == "--oracle":
            options[token] = True
        elif token in ("--format", "--family", "--output", "--cap"):
            value = options[token] = next(tokens, "")
            if value[:1] in ("", "-") or token in _CHOICES and value not in _CHOICES[token]:
                return None
        else:
            return None
    fewest, most = _ARITY[argv[0]]
    try:
        cap = int(options.get("--cap", DEFAULT_CAP))  # argparse's type=int
    except ValueError:
        return None
    if not (fewest <= len(paths) <= most and cap > 0):
        return None
    request = AnalysisRequest(
        command=argv[0],
        input_paths=tuple(paths),
        format=options.get("--format", "table"),
        family=options.get("--family", "mcc"),
        oracle="--oracle" in options,
        cap=cap,
    )
    return request, options.get("--output")


def _parse(argv) -> tuple[AnalysisRequest, str | None]:
    """The request and output path by argparse, which prints help and exits
    2 on every usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "axioms" and len(args.paths) > 2:
        parser.error("axioms takes one game plus an optional second game")  # exits 2
    if args.cap <= 0:
        parser.error("--cap must be positive")
    request = AnalysisRequest(
        command=args.command,
        input_paths=tuple(args.paths),
        format=args.format,
        family=args.family,
        oracle=args.oracle,
        cap=args.cap,
    )
    return request, args.output


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
