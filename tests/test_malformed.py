"""Malformed game files through the CLI: every one must end in exit 1 or
2 with an ``error:`` line, never in a traceback.

Each case takes a valid document of one kind and puts a value of a wrong
JSON type (or an out-of-range one) at one place: a member, a key, a
level, a weight, a threshold, a count or a whole section.
"""

import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgindex.cli import main

VALID = {
    "table": {"kind": "jk", "n": 2, "j": 2, "k": 3, "table": [0, 1, 1, 2]},
    "weighted": {
        "kind": "jk", "n": 3, "j": 3, "k": 3,
        "weighted": {"weights": ["3", "2", 1], "thresholds": [7, "12"]},
    },
    "simple": {"kind": "simple", "n": 3, "winning": [[1], [2, 3]]},
    "tu": {"kind": "tu", "n": 2, "worth": {"1": "1", "2": "1/2", "1,2": 2}},
}

COMMANDS = ("analyze", "mcv", "potential", "average", "axioms", "embed")

#: (document, path to the slot, what the slot must hold)
SLOTS = [
    *((kind, (key,), "int") for kind in ("table", "weighted") for key in ("n", "j", "k")),
    ("simple", ("n",), "int"),
    ("tu", ("n",), "int"),
    *((kind, ("kind",), "kind") for kind in VALID),
    ("table", ("table",), "list"),
    *(("table", ("table", i), "level") for i in range(4)),
    ("weighted", ("weighted",), "object"),
    *(("weighted", ("weighted", key), "list") for key in ("weights", "thresholds")),
    *(("weighted", ("weighted", "weights", i), "rational") for i in range(3)),
    *(("weighted", ("weighted", "thresholds", i), "rational") for i in range(2)),
    ("simple", ("winning",), "list"),
    *(("simple", ("winning", i), "list") for i in range(2)),
    ("simple", ("winning", 0, 0), "member"),
    ("simple", ("winning", 1, 1), "member"),
    ("tu", ("worth",), "object"),
    *(("tu", ("worth", key), "rational") for key in ("1", "2", "1,2")),
    *(("tu", ("worth", key), "key") for key in ("1", "2", "1,2")),
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.integers(-3, 12),
    st.sampled_from((10**12, -(10**12), 2**63)),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rational(value) -> bool:
    if _is_int(value):
        return True
    if not isinstance(value, str):
        return False
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _members(key: str):
    try:
        return frozenset(int(token) for token in key.split(",")) if key else frozenset()
    except ValueError:
        return None


#: per slot, the values that would still be valid there
STILL_VALID = {
    "int": _is_int,
    "kind": lambda value: value in ("jk", "simple", "tu"),
    "list": lambda value: isinstance(value, list),
    "object": lambda value: isinstance(value, dict),
    "level": lambda value: _is_int(value) and 0 <= value < 3,
    "rational": _is_rational,
    "member": lambda value: _is_int(value) and 1 <= value <= 3,
}


@st.composite
def malformed(draw):
    kind, path, slot = draw(st.sampled_from(SLOTS))
    doc = json.loads(json.dumps(VALID[kind]))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if slot == "key":
        new = draw(st.text(alphabet="0123, -x.[]", max_size=6))
        if _members(new) == _members(last):  # the same coalition: repeat a member instead
            new = "1,1"
        parent[new] = parent.pop(last)
    else:
        value = draw(json_values.filter(lambda v: not STILL_VALID[slot](v)))
        parent[last] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return status, out.getvalue(), err.getvalue()


class TestMalformedFiles:
    @settings(max_examples=150, deadline=None)
    @given(doc=malformed(), command=st.sampled_from(COMMANDS))
    def test_exit_one_with_error_line(self, doc, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "game.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            status, out, err = _run([command, str(path)])
        assert status in (1, 2), (status, out, err)
        assert any(line.startswith("error:") for line in err.splitlines()), err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "simple", "n": 2, "winning": [[2], [1, 2, 1]]},
             "winning coalition [1, 2, 1] lists member 1 twice"),
            ({"kind": "tu", "n": 2, "worth": {"1,1": 1}}, "worth key '1,1' lists member 1 twice"),
        ],
        ids=["simple", "tu"],
    )
    def test_repeated_member_refused(self, tmp_path, doc, message):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out, err = _run(["mcv", str(path)])
        assert (status, out, err) == (1, "", f"error: {path}: {message}\n")

    def test_unreadable_texts(self, tmp_path):
        cases = {
            "latin1.json": b'{"kind": "simple", "n": 1, "winning": [[1]], "x": "\xe9"}',
            "deep.json": b"[" * 100000 + b"]" * 100000,
            "digits.json": b'{"kind": "jk", "n": ' + b"9" * 5000 + b', "j": 2, "k": 2, "table": [0]}',
        }
        for name, data in cases.items():
            path = tmp_path / name
            path.write_bytes(data)
            status, out, err = _run(["analyze", str(path)])
            assert status == 1, name
            assert out == "" and err.startswith("error: "), (name, err)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "tu", "n": 1, "worth": {"1": "1e4300"}},
            # the exponent is within the limit; the mantissa adds the digit
            {"kind": "tu", "n": 1, "worth": {"1": "10e4299"}},
            {"kind": "jk", "n": 1, "j": 2, "k": 2, "weighted": {"weights": ["1e4300"], "thresholds": [1]}},
        ],
        ids=["exponent", "mantissa", "weight"],
    )
    def test_value_beyond_digit_limit_refused(self, tmp_path, doc, command):
        # 10^4300 has 4,301 digits, one more than a report can render
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out, err = _run([command, str(path)])
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and err.endswith("has more than 4300 digits\n"), err

    @pytest.mark.parametrize("fmt", ("table", "machine"))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_value_beyond_float_range_renders(self, tmp_path, command, fmt):
        # 401 digits load, but 10^400/3 is beyond the float range of the
        # table format's decimal approximation
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"kind": "tu", "n": 1, "worth": {"1": "1" + "0" * 400 + "/3"}}))
        status, out, err = _run([command, "--format", fmt, str(path)])
        if command in ("analyze", "mcv", "potential"):
            assert (status, err) == (0, "")
            assert ("(~3.333333e+399)" in out) == (fmt == "table")
        else:  # TU games have no average, axioms or embedding
            assert (status, out) == (1, "") and err.startswith("error: "), err

    @pytest.mark.parametrize("command", ("analyze", "potential"))
    def test_sum_beyond_digit_limit_refused(self, tmp_path, command):
        # two worths of 4,300 digits load; their sum, the potential, has 4,301
        nines = "9" * 4300
        doc = {"kind": "tu", "n": 2, "worth": {"1": nines, "2": nines, "1,2": nines}}
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("table", "machine"):
            status, out, err = _run([command, "--format", fmt, str(path)])
            assert (status, out) == (1, "")
            assert err == "error: a sum of the game's worths exceeds 4300 digits\n"
        assert _run(["mcv", str(path)])[0] == 0  # the worths themselves print

    @pytest.mark.parametrize("command", ("analyze", "potential"))
    def test_sum_within_digit_limit_in_lowest_terms_renders(self, tmp_path, command):
        # the digit limit holds for each sum in lowest terms: player 1's value
        # N = 2·10^4299 has 4,300 digits, though 7N, its numerator over the
        # worths' common denominator 7, has 4,301; the listing is {1} of worth
        # N and {2,3} of worth 1/7 - N/2, so the totals stay small too
        big = 2 * 10 ** 4299
        worth = {"1": str(big), "2": str(-big), "3": str(-big), "2,3": f"{1 - 7 * big // 2}/7"}
        worth.update({"1,2": 0, "1,3": 0, "1,2,3": 0})
        path = tmp_path / "lowest.json"
        path.write_text(json.dumps({"kind": "tu", "n": 3, "worth": worth}), encoding="utf-8")
        for fmt in ("table", "machine"):
            status, out, err = _run([command, "--format", fmt, str(path)])
            assert (status, err) == (0, "")
        assert str(big) in _run(["analyze", "--format", "machine", str(path)])[1]

    def test_huge_common_denominator_refused_early(self, tmp_path):
        # 4,095 coalitions, each worth 1/(10^4000 + rank): neighbouring
        # denominators are coprime, so their lcm would have millions of
        # digits; the load stops once it passes the integer digit limit
        worth = {
            ",".join(str(p) for p in range(1, 13) if rank >> (12 - p) & 1): f"1/1{rank:04000d}"
            for rank in range(1, 1 << 12)
        }
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({"kind": "tu", "n": 12, "worth": worth}), encoding="utf-8")
        start = time.perf_counter()
        status, out, err = _run(["analyze", str(path)])
        assert time.perf_counter() - start < 20
        assert (status, out) == (1, "")
        assert err == "error: the worths' common denominator exceeds 4300 digits\n"

    def test_wide_table_with_one_huge_denominator_refused(self, tmp_path):
        # 2^17 worths, all small integers but one with a 3,000-digit
        # denominator: within the digit limit, but D would be carried by every
        # numerator, over 1.3 * 10^9 bits for the table
        n = 17
        worth = {
            ",".join(str(p) for p in range(1, n + 1) if rank >> (n - p) & 1): rank % 7
            for rank in range(1, 1 << n)
        }
        worth["1"] = "1/1" + "0" * 2999
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"kind": "tu", "n": n, "worth": worth}), encoding="utf-8")
        start = time.perf_counter()
        status, out, err = _run(["analyze", str(path)])
        assert time.perf_counter() - start < 20
        assert (status, out) == (1, "")
        assert err == "error: the worths' common denominator exceeds 8192 bits for 131072 coalitions\n"

    def test_average_with_huge_common_denominator_refused(self, tmp_path):
        # the average divides by j^n (k - 1): with k = 10^4299 a singleton's
        # worth 1/(16 (k - 1)) keeps a 4,301-digit denominator once reduced
        doc = {"kind": "jk", "n": 5, "j": 2, "k": 10**4299, "table": [0] * 31 + [1]}
        path = tmp_path / "bigk.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _run(["analyze", str(path)])[0] == 0  # the game itself loads
        status, out, err = _run(["average", str(path)])
        assert (status, out) == (1, "")
        assert err == "error: the worths' common denominator exceeds 4300 digits\n"

    def test_average_with_huge_scale_refused(self, tmp_path):
        # the reduced worths keep denominators within the limit, but the
        # scale 1/(j^n (k - 1)) = 1/(16 (k - 1)) would print 4,301 digits
        doc = {"kind": "jk", "n": 4, "j": 2, "k": 10**4299, "table": [0] * 15 + [1]}
        path = tmp_path / "bigk.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("table", "machine"):
            status, out, err = _run(["average", str(path), "--format", fmt])
            assert (status, out) == (1, "")
            assert err == "error: the scale's denominator j^n (k-1) exceeds 4300 digits\n"
