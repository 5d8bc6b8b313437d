import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgindex import (
    algebra,
    average,
    cli,
    critical,
    dump_game,
    games,
    make_simple_game,
    single_mcv_game,
    zero_game,
)
from pgindex.algebra import is_mergeable
from pgindex.cli import (
    AnalysisRequest,
    _accept,
    _json_default,
    _listing_json,
    _listing_rows,
    _parse,
    build_parser,
    main,
    run,
)
from pgindex.critical import CoalitionSet, MCVSet
from pgindex.gamefile import _dumps
from pgindex.games import all_coalitions, index_profile
from pgindex.indices import IndexReport

from conftest import DATA, GOLDEN, SRC
from gamegen import random_monotone_jk, random_tu

EXAMPLE = DATA / "example33.json"

#: (golden name, argv with game files under tests/data, exit status). Both
#: formats of each must match tests/golden/<name>_<format>.{txt,json} byte
#: for byte. The goldens were written by the earlier per-class handlers, so
#: they pin the output independently of the current rendering code.
GOLDEN_CASES = (
    ("analyze_example33", ["analyze", "example33.json"], 0),
    ("analyze_simple", ["analyze", "simple_quota.json"], 0),
    ("analyze_tu", ["analyze", "tu3.json"], 0),
    ("analyze_tu_rgc", ["analyze", "tu3.json", "--family", "rgc"], 0),
    ("analyze_zero", ["analyze", "zero22.json"], 1),
    ("mcv_example33", ["mcv", "example33.json"], 0),
    ("mcv_simple", ["mcv", "simple_quota.json"], 0),
    ("mcv_tu", ["mcv", "tu3.json"], 0),
    ("mcv_tu_rgc", ["mcv", "tu3.json", "--family", "rgc"], 0),
    ("potential_example33", ["potential", "example33.json"], 0),
    ("potential_simple", ["potential", "simple_quota.json"], 0),
    ("potential_tu", ["potential", "tu3.json"], 0),
    ("merge_pair", ["merge", "unit_110.json", "unit_011.json"], 0),
    ("merge_violations", ["merge", "unit_10.json", "unit_11.json"], 0),
    ("axioms_pair", ["axioms", "unit_110.json", "unit_011.json"], 0),
    ("axioms_example33", ["axioms", "example33.json"], 0),
    ("axioms_lift", ["axioms", "lift_v.json", "lift_w.json"], 0),  # A4 fails
    ("average_example33", ["average", "example33.json"], 0),
    ("average_table543", ["average", "table543.json"], 0),
    ("average_table543_oracle", ["average", "table543.json", "--oracle"], 0),
    ("embed_simple", ["embed", "simple_quota.json"], 0),
    ("embed_unit", ["embed", "unit_110.json"], 0),
)


@pytest.fixture
def bytecheck(monkeypatch):
    """``tools/bytecheck.py`` as a module, with ``bench/workloads.py`` as its
    ``workloads``, both read-only: the tool puts bench/ on sys.path and
    turns off bytecode writing, which the fixture undoes."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    tool = Path(__file__).parent.parent / "tools" / "bytecheck.py"
    spec = importlib.util.spec_from_file_location("bytecheck", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def invoke(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pgindex", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main_captured(capsys, *argv):
    status = main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def run_inproc(request):
    out, err = io.StringIO(), io.StringIO()
    status = run(request, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_table_output(self):
        code, stdout, stderr = invoke("analyze", str(EXAMPLE))
        assert code == 0
        assert stderr == ""
        assert "minimal critical vectors (5)" in stdout
        assert "(2,2,2)" in stdout
        assert "potential = 6" in stdout
        assert "5/12" in stdout

    def test_machine_output_parses(self):
        code, stdout, stderr = invoke("analyze", str(EXAMPLE), "--format", "machine")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["command"] == "analyze"
        assert doc["error"] is None
        variants = [r["variant"] for r in doc["reports"]]
        assert variants == ["potential_value", "surplus_variant", "normalized_variant"]
        assert doc["reports"][0]["player_values"] == ["6", "5", "4"]

    def test_oracle_flag(self):
        code, stdout, _ = invoke("analyze", str(EXAMPLE), "--format", "machine", "--oracle")
        assert code == 0
        assert json.loads(stdout)["oracle_agrees"] is True

    def test_oracle_note_for_every_class(self, capsys):
        for name, note in (
            ("example33.json", "full down-set scan"),
            ("simple_quota.json", "via the (2,2) embedding"),
            ("tu3.json", "minimal critical vs real gaining"),
        ):
            argv = ["analyze", str(DATA / name), "--format", "machine", "--oracle"]
            status, stdout, _ = main_captured(capsys, *argv)
            assert status == 0
            doc = json.loads(stdout)
            assert (doc["oracle_agrees"], doc["oracle_note"]) == (True, note)

    def test_potential_oracle_checks_the_summed_listing(self, capsys):
        # a simple game sums its own listing, which the oracle checks as analyze's
        for name, note in (
            ("example33.json", "full down-set scan"),
            ("simple_quota.json", "via the (2,2) embedding"),
            ("tu3.json", "minimal critical vs real gaining"),
        ):
            plain = main_captured(capsys, "potential", str(DATA / name))
            checked = main_captured(capsys, "potential", str(DATA / name), "--oracle")
            assert checked == (0, plain[1] + "\noracle cross-check: agrees\n", "")
            argv = ["potential", str(DATA / name), "--format", "machine"]
            plain_doc = json.loads(main_captured(capsys, *argv)[1])
            status, stdout, stderr = main_captured(capsys, *argv, "--oracle")
            assert (status, stderr) == (0, "")
            doc = json.loads(stdout)
            assert "oracle_agrees" not in plain_doc
            assert doc == {**plain_doc, "oracle_agrees": True, "oracle_note": note}

    # unanimity games just above the oracle's cap of 3**9 profiles
    WIDE = {
        "jk": {"kind": "jk", "n": 10, "j": 3, "k": 2, "table": [0] * (3**10 - 1) + [1]},
        "simple": {"kind": "simple", "n": 15, "winning": [list(range(1, 16))]},
    }

    @pytest.mark.parametrize("command", ["analyze", "mcv"])
    @pytest.mark.parametrize("kind", ["jk", "simple"])
    def test_oracle_over_cap_is_skipped(self, kind, command, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.WIDE[kind]))
        size = 3**10 if kind == "jk" else 2**15
        reason = f"oracle is capped at 19683 profiles, table has {size}"
        status, stdout, stderr = main_captured(capsys, command, str(path), "--oracle")
        assert (status, stderr) == (0, "")
        assert stdout.endswith(f"\n\noracle cross-check: skipped ({reason})\n")
        argv = [command, str(path), "--oracle", "--format", "machine"]
        status, stdout, stderr = main_captured(capsys, *argv)
        assert (status, stderr) == (0, "")
        doc = json.loads(stdout)
        assert (doc["oracle_agrees"], doc["oracle_note"]) == (None, reason)
        listing = doc["reports"][0]["listing"] if command == "analyze" else doc["listing"]
        assert len(listing) == 1

    def test_trivial_game_exits_1_with_raw_zeros(self, tmp_path):
        path = tmp_path / "z.json"
        dump_game(zero_game(2, 2, 2), path)
        code, stdout, stderr = invoke("analyze", str(path))
        assert code == 1
        assert "error:" in stderr
        assert "no minimal critical vectors" in stdout
        code, stdout, stderr = invoke("analyze", str(path), "--format", "machine")
        assert code == 1
        doc = json.loads(stdout)
        assert doc["error"] is not None
        assert doc["reports"][0]["player_values"] == ["0", "0"]

    def test_tu_family_flag(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            '{"kind": "tu", "n": 2, "worth": {"1": "1", "2": "0", "1,2": "1"}}'
        )
        code, stdout, _ = invoke("analyze", str(path), "--format", "machine", "--family", "rgc")
        assert code == 0
        assert json.loads(stdout)["family"] == "rgc"


class TestMCV:
    def test_simple_with_oracle(self, tmp_path):
        path = tmp_path / "s.json"
        dump_game(
            make_simple_game(3, [{1}, {2, 3}, {1, 2}, {1, 3}, {1, 2, 3}]), path
        )
        code, stdout, _ = invoke("mcv", str(path), "--format", "machine", "--oracle")
        assert code == 0
        doc = json.loads(stdout)
        listing = {tuple(item["coalition"]) for item in doc["listing"]}
        assert listing == {(1,), (2, 3)}
        assert doc["oracle_agrees"] is True


class TestGoldens:
    @pytest.mark.parametrize("fmt", ["table", "machine"])
    @pytest.mark.parametrize(
        "name, argv, status", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
    )
    def test_output_matches_golden(self, name, argv, status, fmt, capsys):
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        code, out, err = main_captured(capsys, *argv, "--format", fmt)
        assert code == status
        suffix = "json" if fmt == "machine" else "txt"
        assert out.encode("utf-8") == (GOLDEN / f"{name}_{fmt}.{suffix}").read_bytes()
        assert (err == "") == (status == 0)


class TestPotential:
    def test_jk_routes_agree(self):
        code, stdout, _ = invoke("potential", str(EXAMPLE), "--format", "machine")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["potential"] == "6"
        assert doc["recursive"] == "6"
        assert doc["match"] is True

    def test_recursion_beyond_twenty_players(self, capsys, tmp_path):
        # the recursion sums the listing by support size and has no cap of its
        # own, so the recursive line is printed for a 21-player unanimity game
        path = tmp_path / "w21.json"
        rule = {"weights": [1] * 21, "thresholds": [21]}
        path.write_text(json.dumps({"kind": "jk", "n": 21, "j": 2, "k": 2, "weighted": rule}))
        status, stdout, stderr = main_captured(capsys, "potential", str(path))
        assert (status, stderr) == (0, "")
        assert stdout.endswith("potential (recursive) = 1\nroutes agree: yes\n")


class TestMergeAxioms:
    @pytest.fixture
    def pair(self, tmp_path):
        p1 = tmp_path / "u1.json"
        p2 = tmp_path / "u2.json"
        dump_game(single_mcv_game((1, 1, 0), 1, 2, 2), p1)
        dump_game(single_mcv_game((0, 1, 1), 1, 2, 2), p2)
        return str(p1), str(p2)

    def test_merge(self, pair):
        code, stdout, _ = invoke("merge", *pair, "--format", "machine")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["mergeable"] is True
        assert doc["union_check"] is True

    @pytest.mark.parametrize(
        "pair", [("unit_110.json", "unit_011.json"), ("unit_10.json", "unit_11.json")]
    )
    def test_merge_checks_mergeability_once(self, monkeypatch, capsys, pair):
        calls = []

        def counting(v, w):
            calls.append((v, w))
            return is_mergeable(v, w)

        monkeypatch.setattr(algebra, "is_mergeable", counting)  # the handler imports it from here
        assert main(["merge", *(str(DATA / name) for name in pair)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_merge_violations_listed(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        dump_game(single_mcv_game((1, 0), 1, 2, 2), p1)
        dump_game(single_mcv_game((1, 1), 1, 2, 2), p2)
        code, stdout, _ = invoke("merge", str(p1), str(p2), "--format", "machine")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["mergeable"] is False
        assert doc["violations"][0]["clause"] == "C2_le_not_less"

    def test_axioms(self, pair):
        code, stdout, _ = invoke("axioms", *pair, "--format", "machine")
        assert code == 0
        doc = json.loads(stdout)
        statuses = {a["axiom"]: a["status"] for a in doc["axioms"]}
        assert statuses == {"A1": "pass", "A2": "pass", "A3": "pass", "A4": "pass"}

    def test_axioms_single_game(self):
        code, stdout, _ = invoke("axioms", str(EXAMPLE), "--format", "machine")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["second_game"] is None

    def test_axioms_arity_usage_error(self, pair):
        code, _, stderr = invoke("axioms", pair[0], pair[1], pair[0])
        assert code == 2

    def test_merge_needs_jk(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"kind": "tu", "n": 1, "worth": {"1": "1"}}')
        code, _, stderr = invoke("merge", str(path), str(path))
        assert code == 1
        assert "error:" in stderr


class TestAverage:
    def test_machine_doc(self):
        code, stdout, _ = invoke("average", str(EXAMPLE), "--format", "machine", "--oracle")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["scale"] == "1/54"
        assert doc["average_game"]["kind"] == "tu"
        assert doc["average_game"]["worth"]["1,2,3"] == "1"
        values = doc["comparison"]["pgv_of_average"]["player_values"]
        assert values == ["17/6", "22/9", "7/3"]
        assert doc["comparison"]["equal_after_normalization"] is False
        assert doc["oracle_agrees"] is True

    @pytest.mark.parametrize("n", range(13))
    def test_coalition_column(self, n):
        # joined from the ranks; the constant-0 game's average game is worth 0 everywhere
        request = AnalysisRequest("average", ("g.json",))
        text, error = cli._cmd_average([zero_game(n, 2, 2)], request)
        rows = [("coalition", "worth")]
        rows += [("{%s}" % _coalition_text(S), "0") for S in all_coalitions(n)]
        assert error is None
        assert "\n".join(cli._aligned(rows)) + "\n" in text

    def test_oracle_capped_by_its_own_evaluations(self, capsys):
        # the table has 27 entries; the oracle's sums take (j+1)^n = 64 evaluations
        status, stdout, stderr = main_captured(
            capsys, "average", str(EXAMPLE), "--oracle", "--cap", "50"
        )
        assert (status, stdout) == (1, "")
        assert stderr.startswith("error: ") and "64" in stderr and "cap is 50" in stderr
        status, stdout, stderr = main_captured(
            capsys, "average", str(EXAMPLE), "--oracle", "--cap", "64"
        )
        assert (status, stderr) == (0, "")
        assert stdout.endswith("oracle cross-check: agrees\n")

    def test_oracle_cap_refuses_before_the_reduction(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(average, "compare_pgv_vs_jk", lambda *a, **kw: calls.append(a))
        status, stdout, stderr = main_captured(
            capsys, "average", str(EXAMPLE), "--oracle", "--cap", "50"
        )
        assert (status, stdout, calls) == (1, "", [])
        assert stderr == "error: the oracle would take 64 evaluations, cap is 50\n"


class TestEmbed:
    def test_simple_to_jk(self, tmp_path):
        path = tmp_path / "s.json"
        dump_game(make_simple_game(2, [{1}, {1, 2}]), path)
        code, stdout, _ = invoke("embed", str(path))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["kind"] == "jk" and doc["j"] == 2 and doc["k"] == 2

    def test_jk2_to_tu(self, tmp_path):
        path = tmp_path / "g.json"
        dump_game(single_mcv_game((1, 1), 1, 2, 2), path)
        code, stdout, _ = invoke("embed", str(path))
        assert code == 0
        assert json.loads(stdout)["kind"] == "tu"

    def test_wide_jk_refused(self):
        code, _, stderr = invoke("embed", str(EXAMPLE))
        assert code == 1
        assert "error:" in stderr


class TestErrorPaths:
    def test_missing_file(self):
        code, _, stderr = invoke("analyze", "/nonexistent/g.json")
        assert code == 1
        assert "error:" in stderr

    def test_non_monotone_table_with_witnesses(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "jk", "n": 2, "j": 2, "k": 2, "table": [0, 1, 0, 0]}')
        code, _, stderr = invoke("analyze", str(path))
        assert code == 1
        assert "witness" in stderr

    def test_unhashable_member(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind":"simple","n":2,"winning":[[[1]]]}')
        code, stdout, stderr = invoke("analyze", str(path))
        assert code == 1
        assert stdout == ""
        assert stderr == "error: player [1] is not one of 1..2\n"

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000"])
    def test_huge_decimal_exponent(self, tmp_path, text):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"kind": "jk", "n": 1, "j": 2, "k": 2, '
                        f'"weighted": {{"weights": ["{text}"], "thresholds": ["1"]}}}}')
        code, stdout, stderr = invoke("analyze", str(path))
        assert code == 1
        assert stdout == ""
        assert stderr == (
            f"error: {path}: weight {text!r} has a decimal exponent beyond 4300 in magnitude\n"
        )

    def test_decimal_exponent_within_limit(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"kind": "tu", "n": 1, "worth": {"1": "1.5e300"}}')
        code, stdout, stderr = invoke("mcv", str(path))
        assert (code, stderr) == (0, "")
        assert str(15 * 10 ** 299) in stdout

    def test_no_command_usage_error(self):
        code, _, _ = invoke()
        assert code == 2

    def test_potential_recursion_over_cap(self):
        # the cap bounds the 27-entry table only: the recursion holds one sum
        # per support size, so a cap that admits the table admits it
        code, stdout, stderr = invoke("potential", str(EXAMPLE), "--cap", "27")
        assert (code, stderr) == (0, "")
        assert stdout == invoke("potential", str(EXAMPLE))[1]
        code, stdout, stderr = invoke("potential", str(EXAMPLE), "--cap", "26")
        assert (code, stdout) == (1, "")
        assert stderr == "error: table would need 27 entries, cap is 26\n"

    def test_huge_player_count(self, tmp_path):
        # would try to build a j ** n integer without the player-count guard
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "jk", "n": 1000000000000, "j": 3, "k": 2, "table": [0]}')
        code, stdout, stderr = invoke("analyze", str(path))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "Traceback" not in stderr

    def test_out_of_memory_is_one_error_line(self, monkeypatch):
        # as a table beyond memory fails under a raised --cap; asked for in
        # earnest, it may get the process killed rather than refused
        def exhausted(games, request):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "embed", exhausted)
        status, stdout, stderr = run_inproc(AnalysisRequest("embed", (str(EXAMPLE),)))
        assert (status, stdout, stderr) == (1, "", "error: out of memory\n")

    def test_bad_cap(self):
        code, _, _ = invoke("analyze", str(EXAMPLE), "--cap", "0")
        assert code == 2

    def test_output_flag(self, tmp_path):
        target = tmp_path / "report.json"
        code, stdout, _ = invoke(
            "analyze", str(EXAMPLE), "--format", "machine", "--output", str(target)
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(target.read_text())["command"] == "analyze"

    def test_output_may_name_the_input(self, tmp_path, capsys):
        path = tmp_path / "example33.json"
        path.write_bytes(EXAMPLE.read_bytes())
        _, report, _ = main_captured(capsys, "analyze", str(EXAMPLE))
        status, stdout, stderr = main_captured(
            capsys, "analyze", str(path), "--output", str(path)
        )
        assert (status, stdout, stderr) == (0, "", "")
        assert path.read_text(encoding="utf-8") == report

    def test_failing_load_leaves_the_target(self, tmp_path, capsys):
        bad, target = tmp_path / "bad.json", tmp_path / "report.txt"
        bad.write_text("not json")
        target.write_bytes(b"earlier report\n")
        status, stdout, stderr = main_captured(
            capsys, "analyze", str(bad), "--output", str(target)
        )
        assert (status, stdout) == (1, "")
        assert stderr.startswith("error: ")
        assert target.read_bytes() == b"earlier report\n"

    def test_output_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        status, stdout, stderr = main_captured(
            capsys, "analyze", str(EXAMPLE), "--output", str(target)
        )
        assert (status, stdout) == (1, "")
        assert stderr.startswith("error: ")
        assert not target.parent.exists()


class TestInProcess:
    def test_run_matches_subprocess(self):
        request = AnalysisRequest(command="analyze", input_paths=(str(EXAMPLE),))
        status, out, err = run_inproc(request)
        code, stdout, stderr = invoke("analyze", str(EXAMPLE))
        assert (status, out, err) == (code, stdout, stderr)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "g.json"])
        assert args.format == "table"
        assert args.family == "mcc"
        assert args.oracle is False
        # every option's default is the request's (--output, no field, None)
        request = AnalysisRequest(command="analyze", input_paths=("g.json",))
        for flag in cli._OPTIONS:
            assert getattr(args, flag[2:]) == getattr(request, flag[2:], None), flag

    def test_main_returns_status(self, capsys):
        assert main(["potential", str(EXAMPLE)]) == 0
        capsys.readouterr()


def test_startup_loads_no_code_generators():
    # dataclasses and inspect (with ast, dis, tokenize) would add about 20 ms
    # to every start; compared with the child's own modules before the
    # import, so that a site hook loading either cannot fail the test
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pgindex, pgindex.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


def test_request_loads_no_argparse():
    # a canonical argv is read without argparse, which imports gettext and,
    # when it formats a message, locale; help and usage errors still go
    # through argparse, imported on demand
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from pgindex.cli import main\n"
        "status = main(['mcv', sys.argv[1]])\n"
        "loaded = {'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)\n"
        "print(status, sorted(loaded), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(EXAMPLE)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.startswith("(3,3) game on 3 players\n")
    assert proc.stderr == "0 []\n"
    code, stdout, stderr = invoke("--help")
    assert (code, stderr) == (0, "")
    assert stdout.startswith("usage: pgindex")
    code, stdout, stderr = invoke()
    assert (code, stdout) == (2, "")
    lines = stderr.splitlines()
    assert lines[0].startswith("usage: pgindex") and lines[-1].startswith("pgindex: error: ")


#: the modules that only some requests need
_OPTIONAL_MODULES = (
    "pgindex.algebra", "pgindex.average", "json", "json.decoder", "json.encoder", "json.scanner",
    "argparse", "gettext", "locale", "typing", "pathlib",
    "fractions", "decimal", "_decimal", "numbers", "re", "enum",
)
#: fractions and what it imports, loaded by a request that builds a Fraction
_RATIONAL_MODULES = ["_decimal", "decimal", "enum", "fractions", "numbers", "re"]


def _request_modules(argv, cwd) -> tuple[str, str]:
    """``main(argv)`` in a fresh process without ``site`` (``-S``): its
    stdout, and its stderr followed by a line with the exit status and the
    ``_OPTIONAL_MODULES`` it loaded. Without ``site``, no start-up hook
    (a ``.pth`` file, say) loads any of them first and so hides the
    request's own imports; compared with the child's modules before the
    import all the same."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from pgindex.cli import main\n"
        "status = main(sys.argv[1:])\n"
        f"loaded = set({_OPTIONAL_MODULES!r}) & (set(sys.modules) - before)\n"
        "print(status, sorted(loaded), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analyze", "example33.json"], []),
        (["analyze", "example33.json", "--format", "machine"], []),
        (["analyze", "simple_quota.json"], []),
        (["analyze", "tu3.json"], []),
        (["analyze", "tu3.json", "--format", "machine"], []),
        (["mcv", "example33.json"], []),
        (["mcv", "simple_quota.json"], []),
        (["mcv", "tu3.json"], []),
        (["mcv", "tu3.json", "--family", "rgc"], []),
        (["potential", "example33.json", "--oracle"], []),
        (["potential", "simple_quota.json"], []),
        (["potential", "tu3.json", "--format", "machine"], []),
        (["embed", "simple_quota.json"], []),
        (["embed", "unit_110.json"], []),
        (["merge", "unit_110.json", "unit_011.json"], ["pgindex.algebra"]),
        (["axioms", "example33.json"], ["pgindex.algebra"]),
        (["axioms", "lift_v.json", "lift_w.json"], ["pgindex.algebra"]),
        (["axioms", "lift_v.json", "lift_w.json", "--format", "machine"], ["pgindex.algebra"]),
        (["average", "example33.json"], ["pgindex.average"]),
        (["average", "example33.json", "--format", "machine"], ["pgindex.average"]),
        (
            ["average", "example33.json", "--oracle"],
            sorted(["pgindex.average", *_RATIONAL_MODULES]),
        ),
    ],
    ids=" ".join,
)
def test_request_loads_only_its_modules(argv, loaded):
    # algebra only for merge and axioms, average only for average, json for
    # no file that parses, and fractions only for the oracle of average, which
    # builds Fractions; a failing A4 (the lift pair) keeps its witnesses as
    # integers, written without a Fraction
    stdout, stderr = _request_modules(argv, DATA)
    assert stdout
    assert stderr == f"0 {loaded}\n"


@pytest.mark.parametrize("command", ("analyze", "mcv", "potential", "embed"))
@pytest.mark.parametrize("fmt", ("table", "machine"))
def test_weighted_file_loads_no_rational_modules(tmp_path, command, fmt):
    # "p/q" weights and thresholds are read, summed and written as integers
    doc = {"kind": "jk", "n": 3, "j": 2, "k": 3,
           "weighted": {"weights": ["3/2", "-1/3", "5"], "thresholds": ["1/6", "13/4"]}}
    (tmp_path / "pq.json").write_text(json.dumps(doc))
    stdout, stderr = _request_modules([command, "pq.json", "--format", fmt], tmp_path)
    assert stdout
    assert stderr == "0 []\n"


@pytest.mark.parametrize("name", ("example33.json", "tu3.json"))
def test_refused_embedding_loads_no_rational_modules(name):
    # a (3,3) game and a TU game have no embedding here: one error line
    stdout, stderr = _request_modules(["embed", name], DATA)
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.endswith("\n1 []\n")


_JSON_MODULES = ["enum", "json", "json.decoder", "json.encoder", "json.scanner", "re"]


def test_malformed_file_loads_json_for_its_error(tmp_path):
    # one error line, with json's message and position: json is loaded for it
    # (the scanner builds this message, unlike "Expecting value"), and with
    # json.decoder re and enum
    (tmp_path / "bad.json").write_text('{"kind": "jk",\n "n" [1]}')
    stdout, stderr = _request_modules(["analyze", "bad.json"], tmp_path)
    assert stdout == ""
    assert stderr == f"error: bad.json:2:6: Expecting ':' delimiter\n1 {_JSON_MODULES}\n"


_VALID_TU = '{"kind": "tu", "n": 1, "worth": {"1": "1/2"}}'


@pytest.mark.parametrize(
    "text, error, loaded",
    [
        ("", "bad.json:1:1: Expecting value", _JSON_MODULES),
        (" \n\t\n ", "bad.json:3:2: Expecting value", _JSON_MODULES),
        ("\ufeff" + _VALID_TU, "bad.json:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
         _JSON_MODULES),
        (" \ufeff" + _VALID_TU, "bad.json:1:2: Expecting value", _JSON_MODULES),
        (_VALID_TU + "\n x", "bad.json:2:2: Extra data", _JSON_MODULES),
        (_VALID_TU + ' {"a": 1, "a": 2}', "bad.json:1:47: Extra data", _JSON_MODULES),
        # the hook refuses the repeat while the value is scanned, before json is needed
        ('{"kind": "tu", "kind": "jk"} x', "bad.json: duplicate key 'kind'", []),
    ],
    ids=["empty", "blank", "bom", "bom_after_space", "extra_data", "extra_duplicate_key",
         "duplicate_key_before_extra"],
)
def test_refused_text_has_json_loads_error(tmp_path, text, error, loaded):
    # where the scan finds no value, or more than whitespace after it,
    # json.loads reads the text again, in a process that has not loaded json
    # before, and its error is the one line; a hook error during the scan
    # comes first
    (tmp_path / "bad.json").write_text(text, encoding="utf-8")
    stdout, stderr = _request_modules(["analyze", "bad.json"], tmp_path)
    assert stdout == ""
    assert stderr == f"error: {error}\n1 {loaded}\n"


def test_padded_valid_file_loads_no_json(tmp_path):
    # blank lines around the value are read by the scan alone
    (tmp_path / "padded.json").write_text("\n\n" + _VALID_TU + "\n\n", encoding="utf-8")
    stdout, stderr = _request_modules(["analyze", "padded.json"], tmp_path)
    assert stdout.startswith("TU game on 1 players (monotone)\n")
    assert stderr == "0 []\n"


# ---------------------------------------------------------------------------
# the program's exit (pgindex.__main__.console_entry) against in-process main


def _child(*args, cwd=None, stdout=subprocess.PIPE):
    """``python <args>`` with block-buffered output, as the benchmark runs
    it, so that only a flush writes it: (exit status, stdout bytes, stderr
    bytes)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, cwd=cwd, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv):
    """``main(argv)`` as the program would run it: (exit status, stdout
    bytes, stderr bytes), with argparse's exits read as statuses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue().encode(), err.getvalue().encode()


class TestExitPath:
    """``python -m pgindex`` ends by ``os._exit`` once its output is flushed;
    what it writes and its status must be those of ``main`` in process."""

    @pytest.fixture
    def requests(self, bytecheck, tmp_path):
        """One seed-1 request per (workload, command, format) of the
        benchmark, and the cases the benchmark never sends; run in
        ``tmp_path``, which holds every file they name."""
        argvs = {}
        for name in bytecheck.workloads.WORKLOADS:
            built = bytecheck.workloads.build(name, 1)
            for fname, text in built.files.items():
                (tmp_path / fname).write_text(text, encoding="utf-8")
            for request in built.requests:
                argvs.setdefault((name, request.command, request.fmt), request.argv)
        (tmp_path / "bad.json").write_text(
            '{"kind": "jk", "n": 2, "j": 2, "k": 2, "table": [0, 1, 0, 0]}'
        )
        return [
            *argvs.values(),
            ["analyze", "bad.json"],  # not monotone: exit 1 with witnesses
            ["mcv"],  # usage error: exit 2
            ["--help"],
        ]

    def test_same_bytes_and_status_as_main(self, requests, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # argparse's help fills the terminal width
        statuses = set()
        for argv in requests:
            child = _child("-m", "pgindex", *argv, cwd=tmp_path)
            assert child == _in_process(argv), argv
            statuses.add(child[0])
        assert statuses == {0, 1, 2}
        assert len(requests) == 21

    def test_output_file_is_complete(self, requests, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["analyze", "--format", "machine", "--family", "mcc", "u01_n12m.json"]
        status, report, _ = _in_process(argv)
        assert status == 0 and len(report) > 2 ** 16  # more than a pipe holds
        child = _child("-m", "pgindex", *argv, "--output", "child.json", cwd=tmp_path)
        assert child == _in_process([*argv, "--output", "main.json"]) == (0, b"", b"")
        assert (tmp_path / "child.json").read_bytes() == report
        assert (tmp_path / "main.json").read_bytes() == report

    def test_atexit_handlers_run(self):
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'handler ran')\n"
            "sys.argv[1:] = ['mcv', sys.argv[1]]\n"
            "runpy.run_module('pgindex', run_name='__main__')\n"
        )
        status, out, err = _child("-c", code, str(EXAMPLE))
        assert (status, err) == (0, b"")
        assert out == _in_process(["mcv", str(EXAMPLE)])[1] + b"handler ran\n"

    def test_profiler_still_reports(self):
        status, out, err = _child("-m", "cProfile", "-m", "pgindex", "mcv", str(EXAMPLE))
        assert (status, err) == (0, b"")
        report = _in_process(["mcv", str(EXAMPLE)])[1]
        assert out.startswith(report) and b" function calls " in out[len(report):]

    def test_debugger_session_goes_on(self):
        # pdb drops its trace function on "c" with no breakpoint set, so the
        # program must still see the debugger and leave by sys.exit
        proc = subprocess.run(
            [sys.executable, "-m", "pdb", "-m", "pgindex", "mcv", str(EXAMPLE)],
            input=b"c\nq\n", capture_output=True,
        )
        assert proc.returncode == 0
        assert b"The program exited via sys.exit(). Exit status: 0" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["mcv", str(EXAMPLE)],  # fails in the flush
        ["analyze", "--format", "machine", "--family", "mcc", "u01_n12m.json"],  # in the write
    ])
    def test_closed_pipe_exits_1_without_a_traceback(self, argv, requests, tmp_path):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first byte
        try:
            assert _child("-m", "pgindex", *argv, cwd=tmp_path, stdout=write) == (1, None, b"")
        finally:
            os.close(write)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["mcv", str(EXAMPLE)],  # fails in the flush
        ["analyze", "--format", "machine", "--family", "mcc", "u01_n12m.json"],  # in the write
    ])
    def test_full_device_exits_1_with_one_error_line(self, argv, requests, tmp_path):
        # every write to /dev/full fails with ENOSPC
        full = os.open("/dev/full", os.O_WRONLY)
        try:
            status, _, err = _child("-m", "pgindex", *argv, cwd=tmp_path, stdout=full)
        finally:
            os.close(full)
        assert (status, err) == (1, b"error: [Errno 28] No space left on device\n")


# ---------------------------------------------------------------------------
# the canonical-argv acceptor against argparse

COMMANDS = tuple(name for name, _, _, _ in cli._COMMANDS)
#: options, their abbreviations and "=" forms, help, separators, values
#: argparse reads in more than one way, choices and paths
TOKENS = COMMANDS + (
    "--format", "--family", "--output", "--oracle", "--cap",
    "--fo", "--form", "--fa", "--fam", "--o", "--ou", "--or", "--orac", "--c", "--ca",
    "--format=machine", "--family=rgc", "--output=o.txt", "--cap=5", "--oracle=1", "--cap=",
    "-h", "--help", "--", "-", "", "-5", "-0", "0", "010", "5", "+5", " 7", "1_0", "1e3",
    "\uff19", "9" * 4301,
    "table", "machine", "mcc", "rgc", "tab", "MACHINE",
    "g.json", "h.json", "i.json", "o.txt", "a b", "-a b", "@args",
)
#: whole options of a canonical argv
OPTIONS = tuple(
    [option, value]
    for option, values in (
        ("--format", ("table", "machine")),
        ("--family", ("mcc", "rgc")),
        ("--output", ("o.txt", "g.json")),
        ("--cap", ("5", "010", "+5", " 7", "\uff19", "0")),
    )
    for value in values
) + (["--oracle"],)


@st.composite
def argvs(draw):
    """A command, one or two game files among distinct whole options, and
    up to two tokens of TOKENS put in or swapped in anywhere, or tokens
    dropped, so that many drawn argv sit just on either side of canonical."""
    options = draw(st.lists(st.sampled_from(OPTIONS), max_size=3, unique_by=lambda o: o[0]))
    for path in ["g.json", "h.json"][: draw(st.integers(1, 2))]:
        options.insert(draw(st.integers(0, len(options))), [path])
    argv = [draw(st.sampled_from(COMMANDS)), *sum(options, [])]
    for _ in range(draw(st.integers(0, 2))):
        pos, token = draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS))
        argv[pos:pos + draw(st.integers(0, 1))] = draw(st.sampled_from([[token], []]))
    return argv


def _parsed(argv):
    """The request and output path by argparse, with main's two checks."""
    with contextlib.redirect_stderr(io.StringIO()):
        return _parse(argv)


class TestAcceptor:
    @settings(max_examples=2000, deadline=None)
    @given(argv=argvs())
    @example(argv=["analyze", "--cap", "010", "g.json", "--oracle"])
    @example(argv=["axioms", "--output", "o.txt", "g.json", "h.json", "--family", "rgc"])
    @example(argv=["merge", "--cap", "\uff19", "g.json", "h.json"])
    def test_accepted_argv_reads_the_same_by_argparse(self, argv):
        accepted = _accept(argv)
        if accepted is not None:
            assert accepted == _parsed(argv)

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["mcv", "-h", "g.json"],
        ["mcv", "--fo", "table", "g.json"],
        ["mcv", "--format=machine", "g.json"],
        ["mcv", "--", "g.json"],
        ["mcv", "-", "g.json"],
        ["mcv", "", "g.json"],
        ["mcv", "--format", "table", "--format", "machine", "g.json"],
        ["mcv", "--oracle", "--oracle", "g.json"],
        ["mcv", "--format", "json", "g.json"],
        ["mcv", "--family", "--oracle", "g.json"],
        ["mcv", "g.json", "--output"],
        ["mcv", "g.json", "h.json"],
        ["merge", "g.json"],
        ["merge", "g.json", "--oracle", "h.json"],
        ["axioms", "g.json", "h.json", "i.json"],
        ["mcv", "--cap", "0", "g.json"],
        ["mcv", "--cap", "-5", "g.json"],
        ["mcv", "--cap", "1e3", "g.json"],
        ["mcv", "-5"],
        ["g.json", "mcv"],
        ["--format", "table", "mcv", "g.json"],
    ])
    def test_other_argv_goes_to_argparse(self, argv):
        assert _accept(argv) is None

    def test_fuzzed_options_are_the_table(self):
        # an option added to cli._OPTIONS without values to fuzz fails here
        assert {option[0] for option in OPTIONS} == set(cli._OPTIONS) <= set(TOKENS)

    def test_benchmark_and_bytecheck_requests_take_the_fast_path(self, bytecheck):
        workloads = bytecheck.workloads
        for name in workloads.WORKLOADS:
            built = workloads.build(name, 1)
            for request in [built.warmup, *built.requests]:
                assert _accept(request.argv) is not None, request.argv
        with tempfile.TemporaryDirectory() as tmp:
            dirs = bytecheck.write_files(Path(tmp), [1])
            matrix = list(bytecheck.requests(Path(tmp), dirs))
        assert len(matrix) > 1000
        assert all(_accept(argv) is not None for argv in matrix)


#: (golden name, argv, exit status) of help and usage errors: the golden
#: tests/golden/<name>.txt is the stdout of help, the stderr of an error
USAGE_CASES = (
    ("help", ["--help"], 0),
    *((f"help_{name}", [name, "--help"], 0) for name in COMMANDS),
    ("usage_cap_zero", ["mcv", "--cap", "0", "g.json"], 2),
    ("usage_bad_choice", ["mcv", "--fo", "x", "g.json"], 2),
    ("usage_axioms_arity", ["axioms", "a", "b", "c"], 2),
)


@pytest.mark.parametrize("name, argv, status", USAGE_CASES, ids=[c[0] for c in USAGE_CASES])
def test_help_and_usage_match_golden(name, argv, status, monkeypatch, capsys):
    # argparse wraps to the terminal's width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert exc.value.code == status
    assert (out, err) == ((golden, "") if status == 0 else ("", golden))


def _old_rows(listing) -> list[dict]:
    """A listing in the dict-per-row form it was encoded from before."""
    if isinstance(listing, MCVSet):
        return [{"vector": list(x), "worth": w} for x, w in listing.pairs()]
    return [{"coalition": sorted(S), "worth": str(w)} for S, w in listing.pairs()]


def _nested(value, depth: int):
    for level in range(depth):
        value = {"level": level, "inside": [value]}
    return value


def _coalition_text(S, sep: str = ",") -> str:
    """A coalition's members as the CLI joined them before the rank codec."""
    return sep.join(map(str, sorted(S)))


def _cell(q: Fraction) -> str:
    """A rational's table cell, by the renderer of its numerator and denominator."""
    return cli._frac_table(q.numerator, q.denominator)


def _ranked(n: int, ranks, worths, j: int = 0) -> CoalitionSet | MCVSet:
    """The coalitions of ``ranks`` among n players with their worths, or with
    a ``j`` the vectors of ``ranks`` in {0..j-1}^n, keeping the ranks, n and j
    as ``critical._listing`` keeps them for the codec."""
    if j:
        listing = MCVSet(tuple(index_profile(r, n, j) for r in ranks), tuple(worths))
    else:
        coalitions = [frozenset(i for i in range(1, n + 1) if r >> (n - i) & 1) for r in ranks]
        listing = CoalitionSet(tuple(coalitions), tuple(worths))
    listing.__dict__.update(_ranks=list(ranks), _n=n, _j=j or 2)
    return listing


def _listings():
    rng = random.Random(3)
    yield MCVSet((), ())
    yield CoalitionSet((), ())
    yield critical._listing(zero_game(2, 3, 3))
    yield critical._listing(random_monotone_jk(2, 12, 14, rng))  # j > 10 and k > 10
    yield critical._listing(random_monotone_jk(3, 3, 4, rng))
    for family in ("mcc", "rgc"):
        yield critical._listing(random_tu(4, rng), family)  # Fraction and negative worths
    # {1}, {2,10} and {3,11,12} of 12 players; equal worths, distinct objects
    ranks = (1 << 11, 1 << 10 | 1 << 2, 1 << 9 | 3)
    yield _ranked(12, ranks, (Fraction(-1, 3), Fraction(5), Fraction(-1, 3)))


def test_caller_built_report_renders_its_fractions():
    # built from its Fraction values, not by the value pass: its integers are
    # read from the values on first render, a scalar as its own numerator over
    # its denominator and a tuple over the lcm of theirs
    report = IndexReport(
        "raw_pgi", (1, 2), (Fraction(1, 2), Fraction(-1, 3)), Fraction(5, 6), Fraction(-7, 4),
        CoalitionSet((), ()),
    )
    fields = _json_default(report)
    assert fields["potential"] == "5/6" and fields["lambda_total"] == "-7/4"
    assert fields["player_values"] == ["1/2", "-1/3"]
    assert games._kept(report, "potential") == (5, 6)
    assert games._kept(report, "player_values") == ((3, -2), 6)
    assert _dumps(report, _json_default) == _dumps(
        {"variant": "raw_pgi", "players": [1, 2], "player_values": ["1/2", "-1/3"],
         "potential": "5/6", "lambda_total": "-7/4", "listing": CoalitionSet((), ())},
        _json_default,
    )


class TestListingEncoders:
    """The row-template encoders against the dict-per-row form they replace:
    ``json.dumps(indent=2)`` for the machine format and ``_aligned`` rows
    for the table format."""

    @pytest.mark.parametrize("depth", (0, 1, 3))
    @pytest.mark.parametrize("listing", list(_listings()), ids=lambda L: f"{type(L).__name__}-{len(L)}")
    def test_machine_rows_match_json_dumps(self, listing, depth):
        old = json.dumps(_nested(_old_rows(listing), depth), indent=2)
        assert _dumps(_nested(listing, depth), _json_default) == old
        if depth == 0:
            assert _listing_json(listing, "\n") == old

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12), depth=st.integers(0, 3))
    def test_any_coalition_listing(self, data, n, depth):
        # nonempty coalitions of n players, as listed, in any order and with repeats
        ranks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8) if n else st.just([]))
        fractions = st.fractions(min_value=-(10 ** 6), max_value=10 ** 6)
        worths = data.draw(st.lists(fractions, min_size=len(ranks), max_size=len(ranks)))
        listing = _ranked(n, ranks, worths)
        old = json.dumps(_nested(_old_rows(listing), depth), indent=2)
        assert _dumps(_nested(listing, depth), _json_default) == old
        reference = [("coalition", "worth")]
        reference += [("{%s}" % _coalition_text(S), _cell(w)) for S, w in listing.pairs()]
        want = [f"t ({len(ranks)})", *cli._aligned(reference)] if ranks else ["no t"]
        assert _listing_rows(listing, "t") == want

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        shape=st.sampled_from([(n, j) for j in (2, 3, 4) for n in range(13) if j ** n <= 3 ** 12]
                              + [(n, 12) for n in range(5)]),
        depth=st.integers(0, 3),
    )
    def test_any_vector_listing(self, data, shape, depth):
        # nonzero profiles of {0..j-1}^n, as listed, in any order and with repeats
        n, j = shape
        top = j ** n - 1
        ranks = data.draw(st.lists(st.integers(1, top), max_size=8) if top else st.just([]))
        size = len(ranks)
        worths = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=size, max_size=size))
        listing = _ranked(n, ranks, worths, j)
        old = json.dumps(_nested(_old_rows(listing), depth), indent=2)
        assert _dumps(_nested(listing, depth), _json_default) == old
        reference = [("vector", "worth")] + [(cli._profile_str(x), str(w)) for x, w in listing.pairs()]
        want = [f"t ({len(ranks)})", *cli._aligned(reference)] if ranks else ["no t"]
        assert _listing_rows(listing, "t") == want

    @pytest.mark.parametrize("listing", list(_listings()), ids=lambda L: f"{type(L).__name__}-{len(L)}")
    def test_table_rows_match_aligned(self, listing):
        if not len(listing):
            assert _listing_rows(listing, "t") == ["no t"]
            return
        if isinstance(listing, MCVSet):
            rows = [("vector", "worth")] + [(cli._profile_str(x), str(w)) for x, w in listing.pairs()]
        else:
            rows = [("coalition", "worth")]
            rows += [("{%s}" % _coalition_text(S), _cell(w)) for S, w in listing.pairs()]
        assert _listing_rows(listing, "t") == [f"t ({len(listing)})", *cli._aligned(rows)]

    def test_analyze_reports_share_one_encoding(self, monkeypatch):
        game = random_monotone_jk(3, 3, 4, random.Random(5))
        texts, encode = [], cli._listing_json

        def spy(listing, pad):
            texts.append(encode(listing, pad))
            return texts[-1]

        monkeypatch.setattr(cli, "_listing_json", spy)
        request = AnalysisRequest("analyze", ("g.json",), format="machine")
        text, error = cli._cmd_analyze([game], request)
        listing = critical._listing(game)
        assert error is None and len(texts) == 3
        assert texts[0] is texts[1] is texts[2]  # encoded once, then reused
        assert list(listing.__dict__["_json"]) == ["\n      "]
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert [r["listing"] for r in doc["reports"]] == [_old_rows(listing)] * 3

