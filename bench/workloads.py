"""Deterministic game files and request lists for the three workloads.

Everything here is a pure function of (workload, seed): the same seed
gives byte-identical files and the same request list. The program under
test only ever sees the files; the ``Spec`` objects kept beside them are
the benchmark's own description of each game, used by ``verify.py``.

The shape mix of each workload (player counts, level counts, commands)
is fixed; the seed draws the content inside each shape. That keeps the
cost profile of a run the same from seed to seed while the games differ.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("jk_weighted", "jk_table", "coalition")
FORMATS = ("table", "machine")

#: The running (3,3) example, byte-identical to the repository's example33.json.
EXAMPLE33_TEXT = """{
  "kind": "jk",
  "n": 3,
  "j": 3,
  "k": 3,
  "weighted": {
    "weights": ["3", "2", "1"],
    "thresholds": ["7", "12"]
  }
}
"""


@dataclass(frozen=True)
class Spec:
    """The benchmark's own description of one game file.

    kind "jk": ``n, j, k`` and either ``weights``/``thresholds`` (weighted)
    or ``levels`` (explicit table; ``monotone`` says whether the file is
    meant to be accepted). kind "simple": ``n`` and ``generators``. kind
    "tu": ``n``, ``worths`` (flat, coalition-rank order) and ``monotone``.
    """

    kind: str
    n: int
    j: int = 2
    k: int = 2
    weights: tuple = ()
    thresholds: tuple = ()
    levels: tuple = ()
    generators: tuple = ()
    worths: tuple = ()
    monotone: bool = True


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``python -m pgindex <argv>`` inside the work dir."""

    rid: str
    command: str
    fmt: str
    games: tuple[str, ...]
    family: str | None = None
    case: str | None = None  # named ROADMAP baseline case, if any

    @property
    def argv(self) -> list[str]:
        out = [self.command, "--format", self.fmt]
        if self.family is not None:
            out += ["--family", self.family]
        return out + list(self.games)

    @property
    def twin(self) -> str:
        """Request id of the same request in the other format."""
        other = "machine" if self.fmt == "table" else "table"
        return self.rid.replace(f"/{self.fmt}/", f"/{other}/")


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, str]
    specs: dict[str, Spec]
    requests: list[Request]
    warmup: Request


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    files: dict[str, str] = {}
    specs: dict[str, Spec] = {}
    requests: list[Request] = []
    generators = {"jk_weighted": _jk_weighted, "jk_table": _jk_table, "coalition": _coalition}
    warmup = generators[name](rng, files, specs, requests)
    rng.shuffle(requests)
    return Workload(name, seed, files, specs, requests, warmup)


def _both_formats(command, games, *, family=None, case=None, formats=FORMATS):
    tag = f"{command}" + (f"-{family}" if family else "")
    return [
        Request(f"{tag}/{fmt}/{'+'.join(games)}", command, fmt, tuple(games), family, case)
        for fmt in formats
    ]


def _one_format(command, games, turn, **kw):
    """The request in one format, alternating with ``turn``."""
    return _both_formats(command, games, formats=(FORMATS[turn % 2],), **kw)


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# jk_weighted


#: (n, j, k) of the seeded weighted games, cycled: fourteen games, one
#: request each, so that a run's cost is spread over many draws. Every one
#: of them costs less than the heavy fixed entries (j = 4 only at n = 5).
WEIGHTED_SHAPES = ((6, 3, 2), (6, 3, 3), (6, 3, 4), (5, 4, 2), (5, 4, 3), (7, 3, 2))
WEIGHTED_COMMANDS = ("analyze", "mcv", "potential")
WEIGHTED_GAMES = 14

G83 = Spec("jk", 8, 3, 3, weights=(3, 2, 2, 1, 1, 1, 1, 1), thresholds=(7, 12))
EXAMPLE33 = Spec("jk", 3, 3, 3, weights=(3, 2, 1), thresholds=(7, 12))
# the n=8 and n=7 rungs of the ladder: weights 1, threshold n*(j-1)//2+1
MAJORITY83 = Spec("jk", 8, 3, 2, weights=(1,) * 8, thresholds=(9,))
MAJORITY73 = Spec("jk", 7, 3, 2, weights=(1,) * 7, thresholds=(8,))


def _weighted_doc(spec: Spec) -> dict:
    return {
        "kind": "jk", "n": spec.n, "j": spec.j, "k": spec.k,
        "weighted": {
            "weights": [str(w) for w in spec.weights],
            "thresholds": [str(t) for t in spec.thresholds],
        },
    }


def weighted_levels(spec: Spec) -> list[int]:
    """Output level of every profile, by integer arithmetic after scaling
    weights and thresholds to a common denominator."""
    fracs = [Fraction(v) for v in spec.weights + spec.thresholds]
    scale = math.lcm(*(q.denominator for q in fracs))
    weights = [int(Fraction(w) * scale) for w in spec.weights]
    thresholds = [int(Fraction(t) * scale) for t in spec.thresholds]
    return [
        bisect_right(thresholds, sum(w * a for w, a in zip(weights, x)))
        for x in itertools.product(range(spec.j), repeat=spec.n)
    ]


def _random_weighted(rng: random.Random, n: int, j: int, k: int) -> Spec:
    """Weights 1..6, two of them halved so the sums are true Fractions; the
    k-1 thresholds sit strictly increasing around the middle of the range."""
    halved = set(rng.sample(range(n), 2))
    weights = tuple(Fraction(rng.randint(1, 6), 2 if p in halved else 1) for p in range(n))
    top = (j - 1) * sum(weights)
    thresholds = []
    for level in range(1, k):
        share = Fraction(35 + 30 * level // k + rng.randint(-4, 4), 100)
        t = Fraction(round(top * share * 2), 2)
        if thresholds and t <= thresholds[-1]:
            t = thresholds[-1] + Fraction(1, 2)
        thresholds.append(max(t, Fraction(1, 2)))
    return Spec("jk", n, j, k, weights=weights, thresholds=tuple(thresholds))


def _jk_weighted(rng, files, specs, requests) -> Request:
    # The fixed entries are the same for every seed. The heavy ones are
    # six requests of twenty-six, so the tail percentile (p80) falls among
    # them rather than on whichever seeded game happens to be heaviest.
    fixed = (
        ("g83.json", G83, "g83", "mcv"),
        ("maj83.json", MAJORITY83, "majority n=8 j=3", "mcv"),
        ("maj73.json", MAJORITY73, "majority n=7 j=3", "analyze"),
    )
    for name, spec, case, command in fixed:
        files[name] = _dumps(_weighted_doc(spec))
        specs[name] = spec
        requests += _both_formats(command, [name], case=case)
    files["example33.json"] = EXAMPLE33_TEXT
    specs["example33.json"] = EXAMPLE33
    for command in WEIGHTED_COMMANDS:
        requests += _both_formats(command, ["example33.json"], case="example33")
    for number in range(WEIGHTED_GAMES):
        n, j, k = WEIGHTED_SHAPES[number % len(WEIGHTED_SHAPES)]
        name = f"w{number:02d}_n{n}j{j}k{k}.json"
        spec = _random_weighted(rng, n, j, k)
        files[name] = _dumps(_weighted_doc(spec))
        specs[name] = spec
        command = WEIGHTED_COMMANDS[number % len(WEIGHTED_COMMANDS)]
        requests += _one_format(command, [name], number // len(WEIGHTED_SHAPES))
    return Request("warmup", "analyze", "machine", ("example33.json",))


# ---------------------------------------------------------------------------
# jk_table


#: (n, j, k) of the seeded explicit tables. Each slot yields a mergeable
#: pair split from one game ("a", "b") and an unrelated game ("c") of the
#: same shape; the slot marked in REJECT_SLOT also yields a non-monotone
#: table ("x"), so one file in thirteen must be rejected.
TABLE_SLOTS = ((5, 3, 3), (5, 4, 3), (6, 3, 4), (7, 3, 3))
REJECT_SLOT = 1
#: The slot whose three games are all averaged in both formats. Its six
#: averages and the n = 6 slot's three are the heaviest nine requests of
#: 34, so the p85 tail falls among them, not at the edge of a group.
HEAVY_SLOT = 1
#: Larger tables get only merge and axioms requests: one n = 7, j = 3
#: ``average`` costs about ten median requests and would be the tail alone.
AVERAGE_MAX_N = 6


def strides(n: int, j: int) -> list[int]:
    return [j ** (n - 1 - p) for p in range(n)]


def closure_levels(n: int, j: int, seeds: dict) -> list[int]:
    """Smallest monotone table with v(x) >= w for every seed vector x -> w."""
    st = strides(n, j)
    levels = [0] * j ** n
    for x, w in seeds.items():
        idx = sum(a * s for a, s in zip(x, st))
        levels[idx] = max(levels[idx], w)
    for idx, x in enumerate(itertools.product(range(j), repeat=n)):
        best = levels[idx]
        for p in range(n):
            if x[p] and levels[idx - st[p]] > best:
                best = levels[idx - st[p]]
        levels[idx] = best
    return levels


def scan_mcv(n: int, j: int, levels) -> dict:
    """Minimal critical vectors of a monotone table by predecessor scan."""
    st = strides(n, j)
    out = {}
    for idx, x in enumerate(itertools.product(range(j), repeat=n)):
        level = levels[idx]
        if level and all(levels[idx - st[p]] < level for p in range(n) if x[p]):
            out[x] = level
    return out


def _random_table(rng: random.Random, n: int, j: int, k: int) -> tuple[list, dict]:
    """A monotone table generated by 3-7 random vectors, with at least two
    minimal critical vectors."""
    while True:
        seeds = {}
        for _ in range(rng.randint(3, 7)):
            x = tuple(rng.randrange(j) for _ in range(n))
            if any(x):
                seeds[x] = rng.randint(1, k - 1)
        levels = closure_levels(n, j, seeds)
        mcv = scan_mcv(n, j, levels)
        if len(mcv) >= 2:
            return levels, mcv


def _add_table(files, specs, name, n, j, k, levels, monotone=True) -> str:
    files[name] = _dumps({"kind": "jk", "n": n, "j": j, "k": k, "table": list(levels)})
    specs[name] = Spec("jk", n, j, k, levels=tuple(levels), monotone=monotone)
    return name


def _jk_table(rng, files, specs, requests) -> Request:
    for slot, (n, j, k) in enumerate(TABLE_SLOTS):
        base = f"t{slot:02d}_n{n}j{j}k{k}"
        levels, mcv = _random_table(rng, n, j, k)
        # split the vectors of one game between two games: always mergeable
        vectors = sorted(mcv)
        rng.shuffle(vectors)
        cut = rng.randint(1, len(vectors) - 1)
        a, b = (
            _add_table(files, specs, f"{base}{tag}.json", n, j, k,
                       closure_levels(n, j, {x: mcv[x] for x in part}))
            for tag, part in (("a", vectors[:cut]), ("b", vectors[cut:]))
        )
        c = _add_table(files, specs, f"{base}c.json", n, j, k, _random_table(rng, n, j, k)[0])
        if slot == HEAVY_SLOT:
            for game in (a, b, c):
                requests += _both_formats("average", [game])
        elif n <= AVERAGE_MAX_N:
            requests += _both_formats("average", [a])
            requests += _one_format("average", [c], slot)
        requests += _one_format("axioms", [b], slot)
        requests += _one_format("axioms", [a, b], slot + 1)
        requests += _both_formats("merge", [a, b])
        requests += _one_format("merge", [a, c], slot + 1)
        if slot == REJECT_SLOT:
            # lower one successor of a positive entry below it
            st = strides(n, j)
            candidates = [
                (idx, p)
                for idx, x in enumerate(itertools.product(range(j), repeat=n))
                for p in range(n)
                if x[p] < j - 1 and levels[idx] > 0
            ]
            idx, p = rng.choice(candidates)
            bad = list(levels)
            bad[idx + st[p]] = bad[idx] - 1
            x = _add_table(files, specs, f"{base}x.json", n, j, k, bad, monotone=False)
            requests += _both_formats("average", [x])
    warm = _add_table(files, specs, "warm.json", 2, 2, 2, [0, 0, 0, 1])
    return Request("warmup", "axioms", "machine", (warm,))


# ---------------------------------------------------------------------------
# coalition


#: player counts of the seeded simple games, and of the TU games with
#: whether each is drawn monotone
SIMPLE_SLOTS = (10, 12, 14)
GENERATORS = 12
TU_SLOTS = ((9, True), (12, True), (10, False), (11, False))


def coalition_key(mask: int, n: int) -> str:
    return ",".join(str(i) for i in range(1, n + 1) if mask >> (n - i) & 1)


def _random_generators(rng: random.Random, n: int) -> tuple:
    gens = []
    for _ in range(GENERATORS):
        size = rng.randint(max(2, n // 3), max(3, n // 2))
        gens.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return tuple(gens)


def _random_tu(rng: random.Random, n: int, monotone: bool) -> tuple:
    """Flat worths in coalition-rank order (player 1 is the top bit)."""
    size = 1 << n
    worths = [Fraction(0)] * size
    # by size, so every subset is filled before its supersets
    for mask in sorted(range(1, size), key=lambda m: bin(m).count("1")):
        if monotone:
            floor = max(worths[mask & ~(1 << b)] for b in range(n) if mask >> b & 1)
            worths[mask] = floor + Fraction(rng.choice((0, 0, 0, 1, 2)), rng.choice((1, 2, 3)))
        else:
            worths[mask] = Fraction(rng.randint(-6, 12), rng.choice((1, 2, 6)))
    return tuple(worths)


def _coalition(rng, files, specs, requests) -> Request:
    for slot, n in enumerate(SIMPLE_SLOTS):
        name = f"s{slot:02d}_n{n}.json"
        gens = _random_generators(rng, n)
        files[name] = _dumps({"kind": "simple", "n": n, "winning": [list(g) for g in gens]})
        specs[name] = Spec("simple", n, generators=gens)
        requests += _both_formats("analyze", [name])
        requests += _one_format("mcv", [name], slot)
        requests += _one_format("embed", [name], slot + 1)
    for slot, (n, monotone) in enumerate(TU_SLOTS):
        name = f"u{slot:02d}_n{n}{'m' if monotone else 'x'}.json"
        worths = _random_tu(rng, n, monotone)
        doc = {
            "kind": "tu", "n": n,
            "worth": {coalition_key(m, n): str(worths[m]) for m in range(1, 1 << n)},
        }
        files[name] = _dumps(doc)
        specs[name] = Spec("tu", n, worths=worths, monotone=monotone)
        requests += _both_formats("analyze", [name], family="mcc")
        requests += _both_formats("analyze", [name], family="rgc", formats=("machine",))
        requests += _both_formats("mcv", [name], family="rgc", formats=("table",))
    warm = "warm.json"
    files[warm] = _dumps({"kind": "simple", "n": 3, "winning": [[1], [2, 3]]})
    specs[warm] = Spec("simple", 3, generators=((1,), (2, 3)))
    return Request("warmup", "analyze", "machine", (warm,))
