"""The package's records against independent frozen-dataclass twins.

Each twin below repeats one record's field list, defaults and field
settings as a ``@dataclass(frozen=True)``, and carries the record's own
class name, so that their reprs compare as they are. Built from the same
field values, a record and its twin must agree on equality, hash equality
and repr, on which fields are hidden, on defaults, and on which calls are
refused.

``TestKeptIntegers`` then checks the records whose rationals the kernels
keep as integers against the same records built from Fractions, and the
CLI's renderers of those integers against ``str`` and ``float``.
"""

import random
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from itertools import product, takewhile
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgindex as pg
from pgindex import cli
from pgindex.games import DEFAULT_CAP, _rational_str, _witness_str, profile_index

from gamegen import random_monotone_jk


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


# ---------------------------------------------------------------------------
# one representation, two views: the integers the kernels keep against the
# Fractions the public constructors take


@st.composite
def _tu_worths(draw):
    """A TU game's worths by coalition, as Fractions, the empty one 0."""
    n = draw(st.integers(0, 4))
    worth = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    worths = {S: draw(worth) for S in pg.games.all_coalitions(n)}
    worths[frozenset()] = Fraction(0)
    return n, worths


def _summed_report(variant, players, listing, credit) -> pg.IndexReport:
    """A report built from Fractions: each listed coalition or vector x of
    worth w credits ``credit(x, p, w)`` to each supporter p, and adds w to
    the potential and w times its supporters to the distributed total."""
    values = [Fraction(0)] * len(players)
    potential = lam = Fraction(0)
    for x, w in listing.pairs():
        support = sorted(x) if isinstance(x, frozenset) else [p + 1 for p, a in enumerate(x) if a]
        potential += w
        lam += w * len(support)
        for p in support:
            values[p - 1] += credit(x, p, w)
    return pg.IndexReport(variant, players, tuple(values), potential, lam, listing)


def _shares(variant, report) -> pg.IndexReport:
    """A report's values over their sum, by the public constructor."""
    total = sum(report.player_values)
    shares = tuple(q / total for q in report.player_values)
    return pg.IndexReport(
        variant, report.players, shares, report.potential, report.lambda_total, report.listing
    )


def _agree(kernel, public):
    # hash and repr first, while the kernel's record holds only integers
    assert kernel._rational and "_ints" in kernel.__dict__
    assert not set(kernel._rational) & kernel.__dict__.keys()
    assert hash(kernel) == hash(public)
    assert repr(kernel) == repr(public)
    assert kernel == public and public == kernel


class TestKeptIntegers:
    @settings(max_examples=80, deadline=None)
    @given(data=_tu_worths(), family=st.sampled_from(("mcc", "rgc")))
    def test_tu_listing_and_report(self, data, family):
        n, worths = data
        game = pg.make_tu_game(n, worths)
        listing = pg.critical._listing(game, family)
        public = pg.CoalitionSet(listing.coalitions, tuple(map(worths.get, listing.coalitions)))
        report = pg.pgv_tu(game, family)
        _agree(listing, public)
        _agree(report, _summed_report("tu_pgv", game.labels, public, lambda S, p, w: w))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 4), j=st.integers(2, 3), k=st.integers(2, 4), seed=st.integers(0, 10**6)
    )
    def test_jk_reports(self, n, j, k, seed):
        game = random_monotone_jk(n, j, k, random.Random(seed))
        listing = pg.minimal_critical_vectors(game)
        strides = [j ** (n - p) for p in range(1, n + 1)]

        def surplus(x, p, w):
            return w - game.levels[profile_index(x, j) - strides[p - 1]]

        value = _summed_report("potential_value", game.labels, listing, lambda x, p, w: w)
        variant = _summed_report("surplus_variant", game.labels, listing, surplus)
        _agree(pg.public_good_value_jk(game), value)
        _agree(pg.variant_value(game), variant)
        if not game.trivial:
            _agree(pg.normalized_variant(game), _shares("normalized_variant", variant))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 10 ** 6))
    def test_simple_reports(self, n, seed):
        rng = random.Random(seed)
        count = rng.randint(1, 3)
        generators = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(count)]
        game = pg.simple_game_from_generators(n, generators)
        listing = pg.critical._listing(game)
        raw = _summed_report("raw_pgi", tuple(game.players()), listing, lambda S, p, w: w)
        _agree(pg.pgi_raw(game), raw)
        _agree(pg.pgi_normalized(game), _shares("normalized_pgi", raw))

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(st.fractions(0, 7, max_denominator=9), min_size=0, max_size=4),
        thresholds=st.lists(
            st.fractions(1, 20, max_denominator=9), min_size=1, max_size=3, unique=True
        ),
        form=st.sampled_from((Fraction, str)),
    )
    def test_weighted_rule(self, weights, thresholds, form):
        thresholds = sorted(thresholds)
        k = len(thresholds) + 1
        game = pg.make_weighted_game(list(map(form, weights)), list(map(form, thresholds)), 2, k)
        _agree(game.provenance, pg.WeightedRule(tuple(weights), tuple(thresholds)))

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.fractions()
        | st.integers(-(10 ** 20), 10 ** 20).map(Fraction)
        | st.builds(Fraction, st.integers(-(10 ** 700), 10 ** 700), st.integers(1, 10 ** 40)),
        scale=st.integers(1, 10 ** 6),
    )
    def test_renderer(self, q, scale):
        # the kernels pass p/d as they summed it, not in lowest terms
        p, d = q.numerator * scale, q.denominator * scale
        assert _rational_str(p, d) == str(q)
        cell = cli._frac_table(p, d)
        if q.denominator == 1:
            assert cell == str(q)
            return
        try:
            approx = f"{float(q):.6f}"
        except OverflowError:
            from decimal import Context, Decimal

            quotient = Context(prec=7).divide(Decimal(q.numerator), Decimal(q.denominator))
            approx = f"{quotient:.6e}"
        assert cell == f"{q} (~{approx})"

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(((0, 2, 2), (1, 3, 3), (2, 2, 3), (3, 3, 3), (4, 2, 4))),
        seed=st.integers(0, 10 ** 6),
    )
    def test_average_game_result(self, shape, seed):
        n, j, k = shape
        result = pg.average_game(random_monotone_jk(n, j, k, random.Random(seed)))
        _agree(result, pg.AverageGameResult(result.tu, Fraction(1, j ** n * (k - 1))))

    def test_failing_merge_axiom(self):
        # (1,1) of v at worth 2 has predecessor (1,0), which w lifts to 1
        v = pg.make_table_game(2, 2, 3, [0, 0, 0, 2])
        w = pg.make_table_game(2, 2, 3, [0, 0, 1, 1])
        witnesses = ((1, Fraction(3, 4), Fraction(3, 5)), (2, Fraction(1, 4), Fraction(2, 5)))
        detail = "merged value is not the criticality-weighted average"
        _agree(pg.axiom_report(v, w).results[-1], pg.AxiomResult("A4", "fail", detail, witnesses))
        assert pg.AxiomResult("A4", "skipped", "no second game given").witnesses == ()

    @settings(max_examples=300, deadline=None)
    @given(
        row=st.lists(
            st.integers(-(10 ** 30), 10 ** 30)
            | st.tuples(st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 30)),
            min_size=2,
            max_size=4,
        )
    )
    def test_witness_renderer(self, row):
        # a witness as the checks keep it: ints, and each Fraction as a (p, d) pair
        value = tuple(c if type(c) is int else Fraction(*c) for c in row)
        assert _witness_str(tuple(row)) == str(value)
