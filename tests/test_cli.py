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

from pgindex import algebra, cli, critical, dump_game, make_simple_game, single_mcv_game, zero_game
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
    ("average_example33", ["average", "example33.json"], 0),
    ("average_table543", ["average", "table543.json"], 0),
    ("average_table543_oracle", ["average", "table543.json", "--oracle"], 0),
    ("embed_simple", ["embed", "simple_quota.json"], 0),
    ("embed_unit", ["embed", "unit_110.json"], 0),
)


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
        # simple games sum the listing of their (2,2) embedding
        for name, note in (
            ("example33.json", "full down-set scan"),
            ("simple_quota.json", "full down-set scan"),
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

        monkeypatch.setattr(algebra, "is_mergeable", counting)
        monkeypatch.setattr(cli, "is_mergeable", counting)
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
        monkeypatch.setattr(cli, "compare_pgv_vs_jk", lambda *a, **kw: calls.append(a))
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
        # the table has 27 entries and the recursion holds 2^3 = 8 totals, so
        # a cap that admits the table admits the recursion
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

    def test_benchmark_and_bytecheck_requests_take_the_fast_path(self, monkeypatch):
        # bytecheck puts bench/ on sys.path and turns off bytecode writing
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
        tool = Path(__file__).parent.parent / "tools" / "bytecheck.py"
        spec = importlib.util.spec_from_file_location("bytecheck", tool)
        bytecheck = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bytecheck)
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


def _old_rows(listing) -> list[dict]:
    """A listing in the dict-per-row form it was encoded from before."""
    if isinstance(listing, MCVSet):
        return [{"vector": list(x), "worth": w} for x, w in listing.pairs()]
    return [{"coalition": sorted(S), "worth": str(w)} for S, w in listing.pairs()]


def _nested(value, depth: int):
    for level in range(depth):
        value = {"level": level, "inside": [value]}
    return value


def _listings():
    rng = random.Random(3)
    yield MCVSet((), ())
    yield CoalitionSet((), ())
    yield critical._listing(zero_game(2, 3, 3))
    yield critical._listing(random_monotone_jk(2, 12, 14, rng))  # j > 10 and k > 10
    yield critical._listing(random_monotone_jk(3, 3, 4, rng))
    for family in ("mcc", "rgc"):
        yield critical._listing(random_tu(4, rng), family)  # Fraction and negative worths
    yield CoalitionSet(
        (frozenset({1}), frozenset({2, 10}), frozenset({3, 11, 12})),
        (Fraction(-1, 3), Fraction(5), Fraction(-1, 3)),  # equal worths, distinct objects
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

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.frozensets(st.integers(1, 12), min_size=1),
                st.fractions(min_value=-(10 ** 6), max_value=10 ** 6),
            ),
            max_size=8,
        ),
        depth=st.integers(0, 3),
    )
    def test_any_coalition_listing(self, rows, depth):
        listing = CoalitionSet(tuple(S for S, _ in rows), tuple(w for _, w in rows))
        old = json.dumps(_nested(_old_rows(listing), depth), indent=2)
        assert _dumps(_nested(listing, depth), _json_default) == old
        reference = [("coalition", "worth")]
        reference += [(cli._coalition_str(S), cli._frac_table(w)) for S, w in listing.pairs()]
        want = [f"t ({len(rows)})", *cli._aligned(reference)] if rows else ["no t"]
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
            rows += [(cli._coalition_str(S), cli._frac_table(w)) for S, w in listing.pairs()]
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
