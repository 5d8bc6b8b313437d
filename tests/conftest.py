import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# `python -m pgindex` in a child process finds the package without an install
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)

from pgindex import make_simple_game, make_weighted_game

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def example33():
    # weights (3,2,1), thresholds (7,12): the running (3,3) example
    return make_weighted_game((3, 2, 1), (7, 12), 3, 3)


@pytest.fixture
def quota_simple():
    # weights (3,2,1), quota 3: {1} and {2,3} are the minimal winners
    winning = [
        S
        for S in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})
        if 3 * (1 in S) + 2 * (2 in S) + 1 * (3 in S) >= 3
    ]
    return make_simple_game(3, winning)


AVERAGE33_WORTHS = {
    frozenset(): Fraction(0),
    frozenset({1}): Fraction(1, 2),
    frozenset({2}): Fraction(5, 18),
    frozenset({3}): Fraction(1, 6),
    frozenset({1, 2}): Fraction(2, 3),
    frozenset({1, 3}): Fraction(2, 3),
    frozenset({2, 3}): Fraction(1, 2),
    frozenset({1, 2, 3}): Fraction(1),
}


# one pass/fail line per acceptance criterion, printed after the run

CRITERIA: dict[int, str] = {
    1: "example MCV set with worths, under 10 ms",
    2: "example value (6,5,4) and variant (5,4,3)",
    3: "example potential 6, distributed total 15, sum identity",
    4: "average game worths and PGV (51/18, 44/18, 42/18)",
    5: "simple-game MWC, raw index, TU embedding agreement",
    6: "potential identity on random monotone games, under 30 s",
    7: "fast enumeration matches oracles; MCC = RGC when monotone",
    8: "merge suite: union lemma, additivity, A4, decomposition",
    9: "axioms A1-A3 and anonymity under all permutations",
    10: "k=2 collapse: variant equals value on all (3,2) games",
    11: "CLI machine output byte-identical and matches golden",
}

_results: dict[int, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker and report.when == "call":
        number = marker.args[0]
        if report.failed:
            _results[number] = "FAIL"
        elif report.passed and _results.get(number) != "FAIL":
            _results.setdefault(number, "PASS")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n): acceptance criterion covered by this test"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        status = _results.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"ACCEPTANCE {number:2d} [{status}] {CRITERIA[number]}"
        )
