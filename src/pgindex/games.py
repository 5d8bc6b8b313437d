"""Representations of simple games, TU games, and (j,k) simple games.

A (j,k) simple game maps each profile of input levels in {0,...,j-1}^n to
an output level in {0,...,k-1}, sends the all-zero profile to 0, and is
monotone under the componentwise order. Simple games are the j = k = 2
case under the usual correspondence between coalitions and 0/1 profiles,
and TU games drop the level structure in favour of arbitrary rational
worths with the empty coalition worth 0.

Profiles are plain int tuples with player 1 first; tables are flat tuples
ordered by the profile rank with the first coordinate most significant, so
``itertools.product(range(j), repeat=n)`` walks them in storage order.
A rank is split in one place, :func:`_halves`, into players 1..n//2 and the
rest; listings, winning sets and worth keys are joined from the two halves.
Coalitions are frozensets of 1-based player ids. Worths are exact: every
rational is read by one checked reader, :func:`_rational_pair`, kept as
integers over one common denominator (a TU game's worths, a weighted rule,
and in the other modules the listings and value reports), read as a
``Fraction`` only by a caller that asks for one (:class:`_Rational`), and
written by one writer, :func:`_rational_str`.

Games are immutable once built, and a ``JKGame`` or ``SimpleGame`` is valid
by type: its constructor checks the table, and games derived from valid
ones are built through the trusted route :func:`_trusted`, which skips it.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property, partial
from itertools import accumulate, compress, count
from operator import add, floordiv, mul

from .errors import (
    CapExceeded,
    DenominatorTooLarge,
    IncompleteTable,
    IncompleteWorthTable,
    LevelOutOfRange,
    MonotonicityViolation,
    NegativeWeightNonMonotone,
    NonIncreasingThresholds,
    NonZeroAtOrigin,
    NonZeroEmptyCoalition,
    NotBinaryGame,
    NotTwoLevelInput,
    OutOfRangeOutput,
    ProfileDimensionMismatch,
    UnknownPlayer,
    ValidationError,
)

Profile = tuple[int, ...]
Coalition = frozenset[int]
#: an exact rational as the readers take it: an int, a Fraction or a "p/q"
#: string; a string, so that no import of fractions evaluates it
RationalLike = "int | Fraction | str"

#: Hard default on table sizes (j ** n) accepted at construction.
DEFAULT_CAP = 2 ** 24

#: Most bits the common denominator may add to a TU game's numerator table
#: (its bit length times the table's length), 128 MiB.
TABLE_BITS = 2 ** 30


# ---------------------------------------------------------------------------
# profile and coalition plumbing


def profile_index(x: Sequence[int], j: int) -> int:
    """Rank of a profile in table order (first coordinate most significant)."""
    idx = 0
    for level in x:
        idx = idx * j + level
    return idx


def index_profile(idx: int, n: int, j: int) -> Profile:
    """Inverse of :func:`profile_index`."""
    levels = [0] * n
    for pos in reversed(range(n)):
        idx, levels[pos] = divmod(idx, j)
    return tuple(levels)


def all_profiles(n: int, j: int) -> Iterator[Profile]:
    """Every profile in table order."""
    return itertools.product(range(j), repeat=n)


def decrement(x: Profile, i: int) -> Profile:
    """The profile x with player i (1-based) lowered one level."""
    if x[i - 1] == 0:
        raise LevelOutOfRange(f"player {i} is already at level 0 in {x}")
    return x[: i - 1] + (x[i - 1] - 1,) + x[i:]


def all_coalitions(n: int) -> Iterator[Coalition]:
    """Every coalition, ordered like the 0/1 profiles they correspond to."""
    for bits in itertools.product((0, 1), repeat=n):
        yield frozenset(i + 1 for i, b in enumerate(bits) if b)


def coalition_index(coalition: Iterable[int], n: int) -> int:
    """Rank of a coalition: the profile rank of its 0/1 indicator."""
    return sum(1 << (n - i) for i in coalition)


def coalition_of_profile(x: Profile) -> Coalition:
    """Support of a profile: the players at a positive level."""
    return frozenset(i for i, level in enumerate(x, start=1) if level)


def _halves(n: int, j: int, part) -> tuple[list, list]:
    """``part(x, first)`` of every profile x of players 1..n//2 and of
    players n//2 + 1..n, each list in table order, ``first`` the id of x's
    first player. The profile of rank r joins the parts at ``divmod(r,
    len(low))``; for n < 2 the high half is the one empty profile."""
    half = n // 2
    return (
        [part(x, 1) for x in all_profiles(half, j)],
        [part(x, half + 1) for x in all_profiles(n - half, j)],
    )


def _coalitions(n: int, ranks: Iterable[int]) -> tuple[Coalition, ...]:
    """The coalition of each rank, joined from the coalitions of the halves."""
    high, low = _halves(n, 2, lambda x, first: frozenset(compress(count(first), x)))
    return tuple(high[h] | low[q] for h, q in map(divmod, ranks, itertools.repeat(len(low))))


def check_cap(n: int, base: int, cap: int, message: str) -> int:
    """``base ** n``, or :class:`CapExceeded` when it exceeds ``cap``.

    ``message`` is formatted with the size. Since ``base >= 2``, an ``n`` of
    at least ``cap.bit_length()`` is refused before the power is taken, so
    a huge ``n`` never builds a huge integer.
    """
    if n >= cap.bit_length():
        raise CapExceeded(f"{n} players are beyond the cap {cap}")
    size = base ** n
    if size > cap:
        raise CapExceeded(f"{message.format(size)}, cap is {cap}")
    return size


def _axis_lanes(n: int, j: int, size: int, width: int) -> list[tuple[int, int]]:
    """``(shift, mask)`` per axis for tables read as one lane of ``width``
    bytes per rank (``int.from_bytes(table, "little")``): shifting the
    table left by ``shift`` moves each rank's lane one level up the axis,
    and ``mask`` has every bit set in the lanes of the ranks whose
    coordinate on that axis is positive, the ranks such a move can reach."""
    lanes = []
    for p in range(n):
        s = j ** (n - 1 - p)
        raised = (bytes(s * width) + b"\xff" * (s * (j - 1) * width)) * (size // (s * j))
        lanes.append((8 * width * s, int.from_bytes(raised, "little")))
    return lanes


def _up_closure(n: int, j: int, marks: bytes) -> bytes:
    """The upward closure of a 0/1 table: 1 at every rank at or above a
    marked one. Each axis ORs the lanes one level up into the set, j - 1
    times, so a mark climbs the whole axis."""
    up = int.from_bytes(marks, "little")
    for shift, mask in _axis_lanes(n, j, len(marks), 1):
        for _ in range(j - 1):
            up |= (up << shift) & mask
    return up.to_bytes(len(marks), "little")


def _rank_lanes(n: int, j: int, table: Sequence) -> tuple[int, int, int, list[tuple[int, int]]]:
    """The lane view of an integer table, ``(packed, width, guard, lanes)``:
    each entry's rank among the distinct entries in a lane of ``width``
    bytes per table rank, 1, 2 or 4, the narrowest that keeps every rank
    below the lane's top bit; those top bits; and :func:`_axis_lanes` of
    that width. A compare needs only order, which the ranks keep."""
    distinct = sorted(set(table))
    width = next(w for w in (1, 2, 4) if len(distinct) <= 1 << (8 * w - 1))
    lane = {v: r.to_bytes(width, "little") for r, v in enumerate(distinct)}
    packed = int.from_bytes(b"".join(map(lane.__getitem__, table)), "little")
    guard = int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * len(table), "little")
    return packed, width, guard, _axis_lanes(n, j, len(table), width)


def _flagged(flags: int, width: int) -> list[int]:
    """Ranks in table order of the lanes of ``width`` bytes whose top bit
    is set in ``flags``, which sets no other bit."""
    ones = flags >> (8 * width - 1)  # a flagged lane reads 1, so its first byte is 1
    firsts = ones.to_bytes((ones.bit_length() + 7) // 8, "little")[::width]
    # the run of unflagged lanes before each flagged one; the last run is empty
    gaps = map(len, firsts.split(b"\x01")[:-1])
    return list(map(add, accumulate(gaps), count()))


def _lane_view(game) -> tuple[int, int, int, list[tuple[int, int]]]:
    """:func:`_rank_lanes` of a game's integer table (``levels``, or a TU
    game's ``numerators``), packed once and kept on the game, as the
    listings are; not a field, so ``==``, hash and repr never see it."""
    view = game.__dict__.get("_lanes")
    if view is None:
        j = game.j if isinstance(game, JKGame) else 2
        table = game.numerators if isinstance(game, TUGame) else game.levels
        view = game.__dict__["_lanes"] = _rank_lanes(game.n, j, table)
    return view


def _descents(view) -> Iterator[tuple[int, int]]:
    """``(rank, stride)`` wherever raising one coordinate lowers the entry,
    ``table[rank] > table[rank + stride]``, axis by axis, on the table's
    lane view: ``(packed | guard) - pred`` takes each lane's predecessor
    (0 where there is none) off and clears the lane's top bit exactly
    where the entry drops."""
    packed, width, guard, lanes = view
    for shift, mask in lanes:
        s = shift // (8 * width)
        for rank in _flagged(guard & ~((packed | guard) - ((packed << shift) & mask)), width):
            yield rank - s, s


def _check_length(table: tuple, size: int, what: str = "table") -> None:
    if len(table) != size:
        raise ValidationError(f"{what} has {len(table)} entries, expected {size}")


def _check_shape(n: int, j: int, k: int) -> None:
    if n < 0:
        raise ValidationError(f"player count must be >= 0, got {n}")
    if j < 2:
        raise ValidationError(f"need at least 2 input levels, got j={j}")
    if k < 2:
        raise ValidationError(f"need at least 2 output levels, got k={k}")


def _check_players(players: Iterable[int], n: int) -> frozenset[int]:
    members = tuple(players)
    # checked before hashing, so that a list or dict member is an unknown player too
    for i in members:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
            raise UnknownPlayer(f"player {i!r} is not one of 1..{n}")
    return frozenset(members)


def _check_exponent(value, what: str) -> None:
    """Refuse a decimal exponent beyond ``sys.get_int_max_str_digits()`` in
    magnitude: ``Fraction`` would build ten to that power (12 s for
    ``"1e10000000"``), more digits than that limit allows an integer."""
    import re  # here, as only a string on its way to Fraction (which imports re) gets here

    match = isinstance(value, str) and re.search(r"e[-+]?0*(\d[\d_]*)\s*\Z", value, re.I)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    digits = match[1].replace("_", "") if match and limit else "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise ValidationError(
            f"{what} {value!r} has a decimal exponent beyond {limit} in magnitude"
        )


def _over_digit_limit(x: int, limit: int) -> bool:
    # more than limit digits (0: no limit) is |x| >= 10**limit, so over 3 * limit bits
    return bool(limit) and abs(x).bit_length() > 3 * limit and abs(x) >= 10 ** limit


def _rational_pair(value: RationalLike, what: str) -> tuple[int, int]:
    """The reduced numerator and denominator of an exact rational (an int, a
    ``Fraction`` or a string ``Fraction`` reads), with no ``Fraction`` for an
    int or a plain "p" or "p/q"; refused beyond the integer digit limit."""
    if isinstance(value, (bool, float)):
        raise ValidationError(
            f"{what} must be an exact rational (int, Fraction, or 'p/q'), got {value!r}"
        )
    try:
        if isinstance(value, str):
            num, slash, den = value.partition("/")
            if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
                # decimal digits: read as Fraction(value) reads them, minus its regex
                p, q = int(num), int(den or 1)
                g = math.gcd(p, q) if q else 0  # q = 0 divides by zero below
                return p // g, q // g
            _check_exponent(value, what)
        if isinstance(value, int):
            q = value
        else:
            from fractions import Fraction  # here, for what only Fraction reads

            q = Fraction(value)
        limit = sys.get_int_max_str_digits()
        # a report could not render it: "1e4300" and "10e4299" pass the exponent check
        if _over_digit_limit(q.numerator, limit) or _over_digit_limit(q.denominator, limit):
            shown = f" {value!r}" if isinstance(value, str) else ""  # no repr beyond the limit
            raise ValidationError(f"{what}{shown} has more than {limit} digits")
        return q.numerator, q.denominator
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValidationError(f"{what} is not a rational: {value!r}") from None


def _rational_str(p: int, d: int) -> str:
    """``str(Fraction(p, d))`` for d > 0: "p" or "p/q" in lowest terms, the
    text of every rational the package writes."""
    g = math.gcd(p, d)
    return str(p // g) if g == d else f"{p // g}/{d // g}"


def _witness_str(row: tuple) -> str:
    """``str`` of a witness tuple of two or more ints and Fractions kept as (p, d), d > 0."""
    fraction = "Fraction({}, {})".format
    parts = [str(c) if type(c) is int else fraction(*(e // math.gcd(*c) for e in c)) for c in row]
    return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# game types


class _Rational(cached_property):
    """A record field that the kernels keep as integers over one
    denominator, ``(numerator, d)`` or ``(numerators, d)`` in the record's
    ``_ints`` (see :meth:`_Record._from_ints`): read, it is the ``Fraction``
    or the tuple of them, derived on first use. A record built from its
    values holds them from the start."""

    def __init__(self):
        super().__init__(self._fractions)

    def _fractions(self, record):
        from fractions import Fraction  # here, as only a reader of the field needs it

        nums, d = record.__dict__["_ints"][self.attrname]
        if type(nums) is int:
            return Fraction(nums, d)
        fraction = {p: Fraction(p, d) for p in set(nums)}  # one, shared, per numerator
        return tuple(map(fraction.__getitem__, nums))


class _Record:
    """Base of the package's immutable records. A subclass declares its
    fields as annotations, in order, with class attributes as defaults, and
    gets ``__init__`` by field order, ``==``, ``hash`` and a ``Name(a=...)``
    repr over them, read through ``getattr``, so that a field may be a
    ``cached_property``: a :class:`_Rational` field is required, and
    :meth:`_from_ints` takes it as integers. Assignment and deletion raise.
    Its own ``__init__`` may keep further attributes out of the fields.
    Instances keep a ``__dict__`` for ``cached_property``, the kept
    integers, the lane view, the listings and, on a listing, its ranks, its
    JSON text and its value reports. Hand-written, so that startup
    generates no code (see the README, "Module map")."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._rational = tuple(f for f in cls._fields if isinstance(cls.__dict__.get(f), _Rational))
        defaults = cls.__dict__.keys() - set(cls._rational)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in defaults}

    def __init__(self, *args, **kwargs):
        cls, fields, defaults = type(self), self._fields, self._defaults
        given = dict(zip(fields, args), **kwargs)
        missing = [f for f in fields if f not in given and f not in defaults]
        if len(given) < len(args) + len(kwargs) or missing or given.keys() - set(fields):
            raise TypeError(f"{cls.__name__}{fields} got {args} and {kwargs}, missing {missing}")
        self.__dict__.update({f: given[f] if f in given else defaults[f] for f in fields})

    @classmethod
    def _from_ints(cls, *args):
        """The record of ``args`` in field order, each :class:`_Rational`
        field given as its integers over one denominator, as the kernels
        compute it; no ``Fraction`` is built until the field is read."""
        record = object.__new__(cls)
        values = dict(zip(cls._fields, args))
        ints = {f: values.pop(f) for f in cls._rational}
        record.__dict__.update(values, _ints=ints)
        return record

    def _values(self) -> tuple:
        return tuple(map(getattr, itertools.repeat(self), self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r} of a frozen record")

    __delattr__ = __setattr__


def _kept(record: _Record, name: str) -> tuple:
    """The integers of a :class:`_Rational` field over one denominator,
    ``(numerator, d)`` or ``(numerators, d)``, what the package reads and
    renders: as the kernels keep them, or for a record built from its
    ``Fraction`` values, theirs over the lcm of their denominators."""
    ints = record.__dict__.setdefault("_ints", {})
    if name not in ints:
        value = getattr(record, name)
        if isinstance(value, tuple):
            d = math.lcm(*(q.denominator for q in value))
            ints[name] = tuple(q.numerator * (d // q.denominator) for q in value), d
        else:
            ints[name] = value.numerator, value.denominator
    return ints[name]


class WeightedRule(_Record):
    """Weighted description: the output of x counts the thresholds reached
    by the weighted sum of its input levels. ``make_weighted_game`` keeps
    both over the lcm of their denominators."""

    weights: tuple[Fraction, ...] = _Rational()
    thresholds: tuple[Fraction, ...] = _Rational()


class JKGame(_Record):
    """A monotone map from {0..j-1}^n to {0..k-1} with the origin at 0,
    valid by type: the constructor refuses any other table.

    ``levels`` is the flat table in profile-rank order. ``provenance``
    carries the weighted rule the game was built from, if any, and
    ``labels`` the external player names (survivors keep their original
    label after ``remove_player``); neither takes part in equality.
    """

    n: int
    j: int
    k: int
    levels: tuple[int, ...]

    def __init__(self, n, j, k, levels, provenance=None, labels=None):
        self._fill(n, j, k, levels, provenance, labels)
        _check_levels(self)

    def _fill(self, n, j, k, levels, provenance=None, labels=None):
        _check_shape(n, j, k)
        levels = tuple(levels)
        _check_length(levels, j ** n)
        labels = _labels(labels, n)
        self.__dict__.update(n=n, j=j, k=k, levels=levels, provenance=provenance, labels=labels)

    def value(self, x: Sequence[int]) -> int:
        """Table lookup without validation; see :func:`evaluate`."""
        return self.levels[profile_index(x, self.j)]

    def profiles(self) -> Iterator[Profile]:
        return all_profiles(self.n, self.j)

    def players(self) -> range:
        return range(1, self.n + 1)

    @property
    def trivial(self) -> bool:
        """True for the constant-0 game."""
        return not any(self.levels)


class SimpleGame(_Record):
    """A monotone yes/no voting game, valid by type: the constructor refuses
    any other table. ``levels`` is its (2,2) table, 1 for each winning
    coalition and 0 for each losing one in coalition-rank order; on a game
    built by :func:`simple_game_from_generators` it is derived on first
    read, as ``winning`` is from it."""

    n: int
    levels: tuple[int, ...]

    @cached_property
    def levels(self) -> tuple[int, ...]:
        marks = bytearray(1 << self.n)
        for rank in self.__dict__["_generators"]:
            marks[rank] = 1
        return tuple(_up_closure(self.n, 2, marks))

    def __init__(self, n, levels):
        self._fill(n, levels)
        _check_levels(self)

    def _fill(self, n, levels):
        _check_shape(n, 2, 2)
        levels = tuple(levels)
        _check_length(levels, 1 << n)
        self.__dict__.update(n=n, levels=levels)

    @cached_property
    def winning(self) -> frozenset[Coalition]:
        return frozenset(_coalitions(self.n, compress(count(), self.levels)))

    def wins(self, coalition: Iterable[int]) -> bool:
        return self.levels[coalition_index(_check_players(coalition, self.n), self.n)] == 1

    def players(self) -> range:
        return range(1, self.n + 1)

    @property
    def trivial(self) -> bool:
        return not any(self.levels)


class TUGame(_Record):
    """A coalition worth function with worth(∅) = 0; not necessarily monotone.

    The game is its integer table ``numerators``, worth·D in coalition-rank
    order, for D the ``denominator``, the lcm of the worths' reduced
    denominators; every kernel reads it, and ``worths``, the ``Fraction``
    table, is derived from it on first use (a :class:`_Rational` field).
    The constructor takes one worth per coalition, the empty one worth 0,
    and refuses D beyond the integer digit limit or when D's bit length
    times the table's length exceeds ``TABLE_BITS``. ``labels`` are the
    external player names.
    """

    n: int
    worths: tuple[Fraction, ...] = _Rational()

    def __init__(self, n, worths, *, labels=None):
        worths = tuple(worths)
        _check_length(worths, 1 << n, "worth table")
        self._fill(n, [q.numerator for q in worths], [q.denominator for q in worths], labels)

    def _fill(self, n, nums, dens, labels=None):
        """The game of the reduced worths ``nums[rank] / dens[rank]``, kept as
        numerators over D, the lcm of ``dens``, once worth(∅) = 0 and D's
        bounds are checked."""
        if nums[0]:
            raise NonZeroEmptyCoalition(
                f"empty coalition has worth {_rational_str(nums[0], dens[0])}, must be 0"
            )
        d, limit, most_bits = 1, sys.get_int_max_str_digits(), TABLE_BITS // len(nums)
        distinct = set(dens)
        for b in distinct:
            d = math.lcm(d, b)
            if _over_digit_limit(d, limit):
                raise DenominatorTooLarge(f"the worths' common denominator exceeds {limit} digits")
            if d.bit_length() > most_bits:  # a wide table: every numerator carries D
                raise DenominatorTooLarge(
                    f"the worths' common denominator exceeds {most_bits} bits"
                    f" for {len(nums)} coalitions"
                )
        scale = {b: d // b for b in distinct}.__getitem__
        numerators = tuple(map(mul, nums, map(scale, dens)))
        self.__dict__.update(n=n, labels=_labels(labels, n), numerators=numerators, denominator=d)
        self.__dict__["_ints"] = {"worths": (numerators, d)}

    @cached_property
    def monotone(self) -> bool:
        """Whether no added player ever lowers a worth."""
        return next(_descents(_lane_view(self)), None) is None

    def worth(self, coalition: Iterable[int]) -> Fraction:
        from fractions import Fraction

        rank = coalition_index(_check_players(coalition, self.n), self.n)
        return Fraction(self.numerators[rank], self.denominator)

    def players(self) -> range:
        return range(1, self.n + 1)


def _labels(labels: tuple[int, ...] | None, n: int) -> tuple[int, ...]:
    if labels is None:
        return tuple(range(1, n + 1))
    labels = tuple(labels)
    if len(labels) != n:
        raise ValidationError("one label per player required")
    return labels


def _trusted(game_type, *args, **kwargs):
    """A game built by its type's ``_fill(*args, **kwargs)``, without the
    constructor's table check, for a table valid by construction; each
    caller says why."""
    game = object.__new__(game_type)
    game._fill(*args, **kwargs)
    return game


def zero_game(n: int, j: int, k: int) -> JKGame:
    """The constant-0 game on n players, within the default cap."""
    _check_shape(n, j, k)
    size = check_cap(n, j, DEFAULT_CAP, "table would need {} entries")
    return _trusted(JKGame, n, j, k, (0,) * size)  # constant 0: monotone, origin at 0


# ---------------------------------------------------------------------------
# validated constructors


def _check_origin(n: int, j: int, levels: tuple) -> None:
    if levels[0] != 0:
        raise NonZeroAtOrigin(
            f"the all-zero profile maps to {levels[0]}, must map to 0",
            witnesses=[(index_profile(0, n, j), levels[0])],
        )


def _check_entries(n: int, j: int, k: int, levels: Sequence) -> None:
    """Every entry is an int in 0..k-1 and the origin maps to 0; collects
    all witnesses of the first check that fails."""
    # C-speed pre-pass; the loop runs only to collect the witnesses
    if set(map(type, levels)) != {int} or min(levels) < 0 or max(levels) >= k:
        bad = [
            (index_profile(idx, n, j), level)
            for idx, level in enumerate(levels)
            if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level < k
        ]
        if bad:
            raise OutOfRangeOutput(
                f"{len(bad)} table entries outside 0..{k - 1}", witnesses=bad
            )
    _check_origin(n, j, levels)


def _check_levels(game: JKGame | SimpleGame, error=MonotonicityViolation, why: str = "") -> None:
    """:func:`_check_entries` on the game's table, and no one-step raise
    lowers the output, which by transitivity makes the table monotone;
    the lane view this packs stays on the game. A descent is refused as
    ``error``: on a (j,k) game a profile pair, counted after ``why``; on a
    simple game a hole, named by its coalitions."""
    n, levels = game.n, game.levels
    j, k = (game.j, game.k) if isinstance(game, JKGame) else (2, 2)
    _check_entries(n, j, k, levels)
    # in table order, first axis first
    violations = sorted(_descents(_lane_view(game)), key=lambda d: (d[0], -d[1]))
    if violations:
        pairs = [(index_profile(r, n, j), index_profile(r + s, n, j)) for r, s in violations]
        words = f"{why}{len(pairs)} profile pairs where raising a level lowers the output"
        if isinstance(game, SimpleGame):
            words = f"winning set is not closed under supersets ({len(pairs)} holes)"
            pairs = [tuple(map(coalition_of_profile, pair)) for pair in pairs]
        raise error(words, witnesses=pairs)


def make_table_game(
    n: int,
    j: int,
    k: int,
    table: Mapping[Profile, int] | Sequence[int],
    *,
    cap: int = DEFAULT_CAP,
) -> JKGame:
    """Build a (j,k) simple game from an explicit level table.

    ``table`` is either a mapping defined on every profile and nothing
    else, or a flat sequence in profile-rank order.
    """
    _check_shape(n, j, k)
    size = check_cap(n, j, cap, "table would need {} entries")
    if isinstance(table, Mapping):
        missing = sum(1 for x in all_profiles(n, j) if x not in table)
        if missing:
            raise IncompleteTable(f"{missing} of {size} profiles have no entry")
        if len(table) > size:
            raise IncompleteTable(f"{len(table) - size} keys are not profiles")
        table = [table[x] for x in all_profiles(n, j)]
    levels = tuple(table)
    if len(levels) != size:
        raise IncompleteTable(f"got {len(levels)} entries, expected {size}")
    return JKGame(n, j, k, levels)


def make_weighted_game(
    weights: Sequence[RationalLike],
    thresholds: Sequence[RationalLike],
    j: int,
    k: int,
    *,
    cap: int = DEFAULT_CAP,
) -> JKGame:
    """Build the game whose output at x counts how many of the k-1
    thresholds the weighted sum of input levels reaches. Weights and
    thresholds are compared, summed and kept on the rule as integers over
    the lcm of their denominators."""
    w = [_rational_pair(v, "weight") for v in weights]
    t = [_rational_pair(v, "threshold") for v in thresholds]
    if len(t) != k - 1:
        raise ValidationError(f"need k-1 = {k - 1} thresholds, got {len(t)}")
    if any(p * s >= r * q for (p, q), (r, s) in zip(t, t[1:])):
        from fractions import Fraction  # for the message

        shown = tuple(Fraction(*pair) for pair in t)
        raise NonIncreasingThresholds(f"thresholds {shown} are not strictly increasing")
    n = len(w)
    _check_shape(n, j, k)
    check_cap(n, j, cap, "table would need {} entries")
    scale = math.lcm(*(q for _, q in w + t))
    steps = tuple(p * (scale // q) for p, q in w)
    scaled = tuple(p * (scale // q) for p, q in t)
    # integer weighted sums, built one player at a time in table order
    sums = [0]
    for step in steps:
        offsets = [step * level for level in range(j)]
        sums = [s + o for s in sums for o in offsets]
    levels = tuple(map(partial(bisect_right, scaled), sums))
    rule = WeightedRule._from_ints((steps, scale), (scaled, scale))
    game = _trusted(JKGame, n, j, k, levels, rule)  # checked below, as far as the weights need
    if all(step >= 0 for step in steps):
        # threshold counts lie in 0..k-1 and grow with the levels; only the origin can fail
        _check_origin(n, j, levels)
    else:
        why = "negative weights make the table non-monotone: "
        _check_levels(game, NegativeWeightNonMonotone, why)
    return game


def evaluate(game: JKGame, x: Sequence[int]) -> int:
    """Validated table lookup."""
    if len(x) != game.n:
        raise ProfileDimensionMismatch(
            f"profile has {len(x)} entries for a {game.n}-player game"
        )
    xt = tuple(x)
    for pos, level in enumerate(xt):
        if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level < game.j:
            raise LevelOutOfRange(
                f"entry {level!r} for player {pos + 1} outside 0..{game.j - 1}"
            )
    return game.value(xt)


def _marked(n: int, coalitions: Iterable[Iterable[int]], cap: int, message: str) -> list[int]:
    """The distinct ranks of the given nonempty coalitions, ascending."""
    _check_shape(n, 2, 2)
    check_cap(n, 2, cap, message)
    ranks = set()
    for S in coalitions:
        members = _check_players(S, n)
        if not members:
            raise NonZeroAtOrigin("the empty coalition cannot win")
        ranks.add(coalition_index(members, n))
    return sorted(ranks)


def make_simple_game(n: int, winning: Iterable[Iterable[int]]) -> SimpleGame:
    """Build a simple game from its full set of winning coalitions."""
    ranks = _marked(n, winning, DEFAULT_CAP, "table would need {} entries")
    levels = bytearray(1 << n)
    for rank in ranks:
        levels[rank] = 1
    return SimpleGame(n, levels)


def simple_game_from_generators(
    n: int, generators: Iterable[Iterable[int]], *, cap: int = DEFAULT_CAP
) -> SimpleGame:
    """Build a simple game as the upward closure of the given coalitions,
    kept as their distinct ranks, ascending; its table is derived on first
    read, and :func:`critical._listing` may list from the ranks instead."""
    ranks = _marked(n, generators, cap, "closure would enumerate {} coalitions")
    game = object.__new__(SimpleGame)
    # an upward closure of nonempty coalitions: no hole, and the empty coalition loses
    game.__dict__.update(n=n, _generators=ranks)
    return game


def make_tu_game(n: int, worth: Mapping, *, cap: int = DEFAULT_CAP) -> TUGame:
    """Build a TU game from a coalition -> worth mapping (exact rationals).
    The first failure wins: n < 0, the cap, pair by pair an unknown player,
    a coalition named twice or a bad worth, a missing coalition, then the
    checks of :class:`TUGame`."""
    _check_shape(n, 2, 2)
    check_cap(n, 2, cap, "worth table would need {} entries")
    nums, dens, names = {}, {}, {}
    for key, value in worth.items():
        S = _check_players(key, n)
        rank = coalition_index(S, n)
        if rank in names:
            raise ValidationError(
                f"worth keys {names[rank]!r} and {key!r} name the same coalition"
            )
        names[rank] = key
        nums[rank], dens[rank] = _rational_pair(value, f"worth of {sorted(S)}")
    return _rank_filled(n, nums, dens)


def _rank_filled(n: int, nums: dict[int, int], dens: dict[int, int]) -> TUGame:
    """The TU game whose worth at each rank is ``nums[rank] / dens[rank]``,
    reduced, with ranks in 0..2^n - 1: a missing coalition first, then the
    checks of :class:`TUGame`."""
    size = 1 << n
    missing = size - len(nums)
    if missing:
        raise IncompleteWorthTable(f"{missing} of {size} coalitions have no worth")
    ranks = range(size)
    # one reduced pair per rank, so only the worths' own checks remain
    return _trusted(TUGame, n, [*map(nums.__getitem__, ranks)], [*map(dens.__getitem__, ranks)])


def _lowest_terms(n: int, nums: list[int], d: int, labels: tuple[int, ...]) -> TUGame:
    """The TU game of the worths ``nums[rank] / d``, through the worths' own
    checks in ``TUGame._fill``; the table has 2^n entries. Their reduced
    denominators' lcm is d / g for g = gcd(d, nums), so one gcd reduces all."""
    g = math.gcd(d, *nums)
    reduced = [*map(floordiv, nums, itertools.repeat(g))]
    return _trusted(TUGame, n, reduced, (d // g,) * len(nums), labels)


# ---------------------------------------------------------------------------
# embeddings


def embed_simple(game: SimpleGame) -> JKGame:
    """The (2,2) game of a simple game: v(x^S) = 1 iff S wins."""
    return _trusted(JKGame, game.n, 2, 2, game.levels)  # a simple game's table as it is


def extract_simple(game: JKGame) -> SimpleGame:
    """Inverse of :func:`embed_simple`; requires j = k = 2."""
    if game.j != 2 or game.k != 2:
        raise NotBinaryGame(f"expected a (2,2) game, got ({game.j},{game.k})")
    return _trusted(SimpleGame, game.n, game.levels)  # a (2,2) game's table as it is


def embed_2k_as_tu(game: JKGame) -> TUGame:
    """View a two-input-level game as a TU game: worth(S) = v(x^S)."""
    if game.j != 2:
        raise NotTwoLevelInput(f"expected two input levels, got j={game.j}")
    # j = 2: the levels fill a worth table, as integers over 1
    return _trusted(TUGame, game.n, game.levels, (1,) * len(game.levels), game.labels)


# ---------------------------------------------------------------------------
# subgames


def subgame(game: JKGame | TUGame, coalition: Iterable[int]):
    """Restrict to the players in ``coalition``.

    For a (j,k) game the players outside are frozen at level 0; for a TU
    game their coalitions are dropped. Profiles re-index densely and the
    survivors keep their external labels.
    """
    keep = sorted(_check_players(coalition, game.n))
    if isinstance(game, JKGame):
        return _subgame_jk(game, keep)
    if isinstance(game, TUGame):
        return _subgame_tu(game, keep)
    raise TypeError(f"no subgames for {type(game).__name__}")


def _kept_rows(n: int, j: int, keep: list[int]) -> list[int]:
    """Table rows, in order, of the profiles with everyone outside ``keep`` at 0."""
    rows = [0]
    for pos in keep:
        stride = j ** (n - pos)
        rows = [r + stride * level for r in rows for level in range(j)]
    return rows


def _subgame_jk(game: JKGame, keep: list[int]) -> JKGame:
    levels = tuple(map(game.levels.__getitem__, _kept_rows(game.n, game.j, keep)))
    provenance = None
    if game.provenance is not None:
        provenance = WeightedRule(
            tuple(game.provenance.weights[pos - 1] for pos in keep),
            game.provenance.thresholds,
        )
    labels = tuple(game.labels[pos - 1] for pos in keep)
    # a valid table's rows with players frozen at 0 (the subgame lemma), or relabelled
    return _trusted(JKGame, len(keep), game.j, game.k, levels, provenance, labels)


def _subgame_tu(game: TUGame, keep: list[int]) -> TUGame:
    nums = [*map(game.numerators.__getitem__, _kept_rows(game.n, 2, keep))]
    labels = tuple(game.labels[pos - 1] for pos in keep)
    # a valid table's numerators without the coalitions of the players dropped
    return _lowest_terms(len(keep), nums, game.denominator, labels)


def remove_player(game: JKGame | TUGame, i: int):
    """Drop one player; shorthand for ``subgame`` on everyone else."""
    _check_players((i,), game.n)
    return subgame(game, (p for p in game.players() if p != i))
