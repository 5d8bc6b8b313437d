"""The package's records against independent frozen-dataclass twins.

Each twin below repeats one record's field list, defaults and field
settings as a ``@dataclass(frozen=True)``, and carries the record's own
class name, so that their reprs compare as they are. Built from the same
field values, a record and its twin must agree on equality, hash equality
and repr, on which fields are hidden, on defaults, and on which calls are
refused.
"""

from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from itertools import product, takewhile
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgindex as pg
from pgindex import cli
from pgindex.games import DEFAULT_CAP


@dataclass(frozen=True)
class WeightedRule:
    weights: tuple
    thresholds: tuple


@dataclass(frozen=True)
class JKGame:
    n: int
    j: int
    k: int
    levels: tuple
    provenance: object = field(default=None, compare=False, repr=False)
    labels: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SimpleGame:
    n: int
    levels: tuple


@dataclass(frozen=True)
class TUGame:
    n: int
    worths: tuple
    labels: tuple = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class MCVSet:
    vectors: tuple
    worths: tuple


@dataclass(frozen=True)
class CoalitionSet:
    coalitions: tuple
    worths: tuple


@dataclass(frozen=True)
class IndexReport:
    variant: str
    players: tuple
    player_values: tuple
    potential: Fraction
    lambda_total: Fraction
    listing: object


@dataclass(frozen=True)
class MergeReport:
    violations: tuple


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    status: str
    detail: str
    witnesses: tuple = ()


@dataclass(frozen=True)
class AxiomReport:
    results: tuple


@dataclass(frozen=True)
class AverageGameResult:
    tu: object
    scale: Fraction


@dataclass(frozen=True)
class ValueComparison:
    average: object
    pgv_of_average: object
    jk_value: object
    variant: object
    equal_after_normalization: bool
    degenerate: bool


@dataclass(frozen=True)
class AnalysisRequest:
    command: str
    input_paths: tuple
    format: str = "table"
    family: str = "mcc"
    oracle: bool = False
    cap: int = DEFAULT_CAP


TWINS = {
    twin: getattr(cli if twin.__name__ == "AnalysisRequest" else pg, twin.__name__)
    for twin in (
        WeightedRule, JKGame, SimpleGame, TUGame, MCVSet, CoalitionSet, IndexReport,
        MergeReport, AxiomResult, AxiomReport, AverageGameResult, ValueComparison,
        AnalysisRequest,
    )
}
GAMES = {JKGame, SimpleGame, TUGame}

# small domains, so that independent draws are often equal
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.text("ab", max_size=2),
    st.sampled_from([Fraction(1, 2), Fraction(2, 3)]),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.sampled_from([pg.MCVSet(((1,),), (1,)), pg.TUGame(1, (Fraction(0), Fraction(1)))]),
)


def _entries(size, elements):
    return st.tuples(*[elements] * size)


def _up_closed(draw, n, j):
    """A valid table: each entry the largest 0/1 mark at or below its
    profile, with the origin unmarked."""
    marks = (0, *draw(_entries(j ** n - 1, st.integers(0, 1))))
    profiles = list(product(range(j), repeat=n))
    return tuple(
        max(m for y, m in zip(profiles, marks) if all(map(le, y, x))) for x in profiles
    )


@st.composite
def _jk_core(draw):
    n, j, k = draw(st.integers(0, 2)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    return {"n": n, "j": j, "k": k, "levels": _up_closed(draw, n, j)}


@st.composite
def _simple_core(draw):
    n = draw(st.integers(0, 2))
    return {"n": n, "levels": _up_closed(draw, n, 2)}


@st.composite
def _tu_core(draw):
    n = draw(st.integers(0, 2))
    worths = draw(_entries((1 << n) - 1, st.sampled_from([Fraction(1), Fraction(1, 2)])))
    return {"n": n, "worths": (Fraction(0), *worths)}


def _compared(twin):
    return [f for f in fields(twin) if f.compare]


def core_values(twin):
    """The compared fields: required ones always, defaulted ones maybe."""
    if twin in GAMES:
        return {JKGame: _jk_core, SimpleGame: _simple_core, TUGame: _tu_core}[twin]()
    return st.fixed_dictionaries(
        {f.name: VALUES for f in _compared(twin) if f.default is MISSING},
        optional={f.name: VALUES for f in _compared(twin) if f.default is not MISSING},
    )


def hidden_values(twin, n):
    """The fields outside ==, hash and repr, each maybe left to its default."""
    labels = st.none() | _entries(n, st.integers(1, 9))
    hidden = {"provenance": VALUES, "labels": labels}
    return st.fixed_dictionaries(
        {}, optional={f.name: hidden[f.name] for f in fields(twin) if not f.compare}
    )


def build(cls, twin, values, positional):
    """``cls`` called with the first ``positional`` fields (that are given
    and not keyword-only) by position and the rest by keyword."""
    order = [f.name for f in fields(twin) if not f.kw_only]
    names = list(takewhile(values.__contains__, order))[:positional]
    rest = {name: value for name, value in values.items() if name not in names}
    return cls(*(values[name] for name in names), **rest)


def required(twin):
    # games get valid shapes; the other records check nothing
    base = {"n": 1, "j": 2, "k": 2, "levels": (0, 1), "worths": (Fraction(0), Fraction(1))}
    return {f.name: base.get(f.name, "x") for f in fields(twin) if f.default is MISSING}


class TestTwins:
    @pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equality_hash_and_repr_agree(self, twin, data):
        def side(core):
            values = {**core, **data.draw(hidden_values(twin, core.get("n", 0)))}
            positional = data.draw(st.integers(0, len(values)))
            return tuple(build(cls, twin, values, positional) for cls in (TWINS[twin], twin))

        core = data.draw(core_values(twin))
        (a, twin_a), (b, twin_b) = side(core), side(data.draw(st.just(core) | core_values(twin)))
        assert (a == b) == (twin_a == twin_b)
        assert (a != b) == (twin_a != twin_b)
        assert (hash(a) == hash(b)) == (hash(twin_a) == hash(twin_b))
        assert repr(a) == repr(twin_a) and repr(b) == repr(twin_b)
        for f in _compared(twin):
            assert getattr(a, f.name) == getattr(twin_a, f.name)
        assert a != twin_a

    def test_hidden_fields_differ_without_breaking_equality(self):
        rule = pg.WeightedRule((Fraction(1),), (Fraction(1),))
        plain = pg.JKGame(1, 2, 2, (0, 1))
        other = pg.JKGame(1, 2, 2, (0, 1), rule, (7,))
        assert plain == other and hash(plain) == hash(other)
        assert (plain.provenance, plain.labels) != (other.provenance, other.labels)
        assert repr(plain) == repr(other) == "JKGame(n=1, j=2, k=2, levels=(0, 1))"
        tu = pg.TUGame(1, (Fraction(0), Fraction(1)))
        relabelled = pg.TUGame(1, (Fraction(0), Fraction(1)), labels=(7,))
        assert tu == relabelled and hash(tu) == hash(relabelled)
        assert (tu.labels, relabelled.labels) == ((1,), (7,))
        assert repr(tu) == repr(relabelled)
        assert repr(tu) == "TUGame(n=1, worths=(Fraction(0, 1), Fraction(1, 1)))"


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
class TestConstruction:
    def test_defaults_apply(self, twin):
        cls = TWINS[twin]
        record, expected = cls(**required(twin)), twin(**required(twin))
        for f in _compared(twin):
            assert getattr(record, f.name) == getattr(expected, f.name)
        if twin in (JKGame, TUGame):
            assert record.labels == (1,)
        if twin is JKGame:
            assert record.provenance is None

    def test_assignment_and_deletion_raise(self, twin):
        record = TWINS[twin](**required(twin))
        for name in [f.name for f in fields(twin)] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        for f in fields(twin):
            with pytest.raises(AttributeError):
                delattr(record, f.name)
        assert record == TWINS[twin](**required(twin))

    def test_refused_calls_are_type_errors(self, twin):
        values = required(twin)
        first = next(iter(values))
        refused = [
            ((), {"unexpected": 0, **values}),
            ((values[first],), values),  # the first field twice
            ((values[first],) * (len(fields(twin)) + 1), {}),
        ]
        refused += [((), {k: v for k, v in values.items() if k != name}) for name in values]
        for args, kwargs in refused:
            for cls in (twin, TWINS[twin]):
                with pytest.raises(TypeError):
                    cls(*args, **kwargs)


def test_tu_labels_are_keyword_only():
    worths = (Fraction(0), Fraction(1))
    with pytest.raises(TypeError):
        pg.TUGame(1, worths, (1,))
    assert pg.TUGame(1, worths, labels=(3,)).labels == (3,)
