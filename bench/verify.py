"""Checks every response of a run against the benchmark's own expectations.

Each game's expected structure is computed here from the ``Spec`` the
generator kept, by code that shares nothing with the package: weighted
levels by integer dot products, minimal critical vectors by predecessor
scan, minimal winning coalitions as the inclusion-minimal generators, and
the TU families by their definitions. On top of that, the package's own
naive oracles (``minimal_critical_vectors_oracle`` where j^n is at most
``ORACLE_CAP``, ``average_worth_oracle`` on a sample of coalitions) are
run on games built from the benchmark's tables.

Both output formats are parsed into the same ``Extract`` so that a
table-format response can be checked against expectations and against
the machine-format response to the same request.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction

from workloads import Request, Spec, Workload, scan_mcv, strides, weighted_levels

Extract = dict  # field name -> value; fields absent from one format are omitted

#: What a malformed response can raise while it is parsed.
PARSE_ERRORS = (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError)


def _frac(cell: str) -> Fraction:
    return Fraction(cell.split()[0])


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


# ---------------------------------------------------------------------------
# parsing


_ROW_VECTOR = re.compile(r"^\s+\(([\d,]+)\)\s+(\S+)$")
_ROW_COALITION = re.compile(r"^\s+\{([\d,]*)\}\s+(\S.*)$")
_ROW_AXIOM = re.compile(r"^\s+(A\d)\s{2,}(\S+)")
_SCALARS = {
    "potential": re.compile(r"^potential = (.+)$"),
    "lambda": re.compile(r"^distributed total = (.+)$"),
    "scale": re.compile(r"^scale = (.+)$"),
    "direct": re.compile(r"^potential \(direct\)\s+= (.+)$"),
    "recursive": re.compile(r"^potential \(recursive\) = (.+)$"),
}
_FLAGS = {
    "match": re.compile(r"^routes agree: (yes|NO)$"),
    "equal": re.compile(r"^equal after normalization: (yes|no)$"),
    "mergeable": re.compile(r"^mergeable: (yes|no)$"),
    "union": re.compile(r"^union lemma verified: (yes|NO)$"),
}


def parse_table(command: str, text: str) -> Extract:
    """Semantic content of a table-format response."""
    out: Extract = {}
    rows, values, axioms = [], {}, []
    header = None
    for line in text.splitlines():
        if header is not None:
            cells = re.split(r"\s{2,}", line.strip())
            if line.startswith("  ") and len(cells) == len(header) + 1 and cells[0].isdigit():
                for variant, cell in zip(header, cells[1:]):
                    values[variant].append(_frac(cell))
                continue
            header = None
        if re.match(r"^\s+player\s{2,}", line):
            header = re.split(r"\s{2,}", line.strip())[1:]
            values = {v: [] for v in header}
            continue
        if m := _ROW_VECTOR.match(line):
            rows.append((_ints(m.group(1)), _frac(m.group(2))))
        elif m := _ROW_COALITION.match(line):
            rows.append((_ints(m.group(1)), _frac(m.group(2))))
        elif (m := _ROW_AXIOM.match(line)) and m.group(2) in ("pass", "fail", "vacuous", "skipped"):
            axioms.append((m.group(1), m.group(2)))
        elif m := re.match(r"^violations \((\d+)\)$", line):
            out["violations"] = int(m.group(1))
        else:
            for key, pattern in _SCALARS.items():
                if m := pattern.match(line):
                    out[key] = _frac(m.group(1))
            for key, pattern in _FLAGS.items():
                if m := pattern.match(line):
                    out[key] = m.group(1) == "yes"
    if command == "average":
        out["worths"] = dict(rows)
    elif command in ("analyze", "mcv"):
        out["listing"] = rows
    if values:
        out["values"] = values
    if axioms:
        out["axioms"] = axioms
    if command == "merge":
        out.setdefault("violations", 0)
        out.setdefault("union", None)
    return out


def _listing(doc_listing) -> list:
    out = []
    for item in doc_listing:
        key = tuple(item["vector"]) if "vector" in item else tuple(item["coalition"])
        out.append((key, Fraction(item["worth"])))
    return out


def parse_machine(command: str, text: str) -> Extract:
    """Semantic content of a machine-format response (plus raw fields)."""
    doc = json.loads(text)
    out: Extract = {"doc": doc}
    if command == "analyze":
        reports = doc["reports"]
        out["values"] = {r["variant"]: [Fraction(q) for q in r["player_values"]] for r in reports}
        out["listing"] = _listing(reports[0]["listing"])
        out["potential"] = Fraction(reports[0]["potential"])
        out["lambda"] = Fraction(reports[0]["lambda_total"])
        for r in reports[1:]:
            if (_listing(r["listing"]), r["potential"], r["lambda_total"]) != (
                out["listing"], reports[0]["potential"], reports[0]["lambda_total"]
            ):
                out["inconsistent"] = True
    elif command == "mcv":
        out["listing"] = _listing(doc["listing"])
    elif command == "potential":
        out["direct"] = Fraction(doc["potential"])
        out["recursive"] = None if doc["recursive"] is None else Fraction(doc["recursive"])
        out["match"] = doc["match"]
    elif command == "average":
        out["scale"] = Fraction(doc["scale"])
        out["worths"] = {
            _ints(key): Fraction(q) for key, q in doc["average_game"]["worth"].items()
        }
        comp = doc["comparison"]
        out["values"] = {
            comp[part]["variant"]: [Fraction(q) for q in comp[part]["player_values"]]
            for part in ("pgv_of_average", "jk_value", "variant")
        }
        out["equal"] = comp["equal_after_normalization"]
    elif command == "axioms":
        out["axioms"] = [(a["axiom"], a["status"]) for a in doc["axioms"]]
    elif command == "merge":
        out["mergeable"] = doc["mergeable"]
        out["violations"] = len(doc["violations"])
        out["union"] = doc["union_check"]
    return out


# ---------------------------------------------------------------------------
# expectations


def _coalition_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, n + 1) if mask >> (n - i) & 1)


def _mask_of(members, n: int) -> int:
    return sum(1 << (n - i) for i in members)


def tu_monotone(n: int, worths) -> bool:
    return all(
        worths[mask] <= worths[mask | 1 << b]
        for mask in range(1 << n)
        for b in range(n)
        if not mask >> b & 1
    )


def tu_family(n: int, worths, family: str) -> list[int]:
    """Masks of the minimal critical ("mcc") or real gaining ("rgc")
    coalitions, by their definitions."""
    out = []
    for mask in range(1, 1 << n):
        w = worths[mask]
        if family == "mcc":
            keep = all(w > worths[mask & ~(1 << b)] for b in range(n) if mask >> b & 1)
        else:
            keep, sub = True, (mask - 1) & mask
            while keep:
                keep = worths[sub] < w
                if sub == 0:
                    break
                sub = (sub - 1) & mask
        if keep:
            out.append(mask)
    return out


def _values_from(n: int, listing) -> list[Fraction]:
    """Per player: summed worths of the listed coalitions containing them."""
    values = [Fraction(0)] * n
    for members, w in listing:
        for i in members:
            values[i - 1] += w
    return values


class OracleMismatch(Exception):
    """The benchmark's own scan and the package's naive oracle disagree."""


class Verifier:
    """Expected content per game, computed once, and checks per response."""

    def __init__(self, workload: Workload, oracles):
        self.workload = workload
        self.oracles = oracles  # the package modules providing the naive oracles
        self._cache: dict[tuple, object] = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- per-game facts -----------------------------------------------------

    def spec(self, key) -> Spec:
        """A file's spec; a pair of file names stands for their pointwise
        maximum, which has the shape of the first."""
        return self.workload.specs[key[0] if isinstance(key, tuple) else key]

    def levels(self, key) -> list[int]:
        def compute():
            if isinstance(key, tuple):
                return [max(a, b) for a, b in zip(self.levels(key[0]), self.levels(key[1]))]
            spec = self.spec(key)
            return list(spec.levels) if spec.levels else weighted_levels(spec)
        return self._memo(("levels", key), compute)

    def mcv(self, key) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted (vector, worth); also cross-checked against the package's
        down-set oracle where the table is small enough."""
        def compute():
            spec = self.spec(key)
            levels = self.levels(key)
            found = sorted(scan_mcv(spec.n, spec.j, levels).items())
            if spec.j ** spec.n <= self.oracles.critical.ORACLE_CAP:
                game = self.oracles.games.JKGame(spec.n, spec.j, spec.k, tuple(levels))
                oracle = self.oracles.critical.minimal_critical_vectors_oracle(game)
                if list(oracle.pairs()) != found:
                    raise OracleMismatch(f"{key}: the down-set oracle disagrees with the scan")
            return [(x, Fraction(w)) for x, w in found]
        return self._memo(("mcv", key), compute)

    def jk_values(self, key) -> dict[str, list[Fraction]]:
        """Potential-based value, surplus variant and its normalization.
        The surplus total is also the total criticality count."""
        def compute():
            spec = self.spec(key)
            levels = self.levels(key)
            st = strides(spec.n, spec.j)
            value = [Fraction(0)] * spec.n
            surplus = [Fraction(0)] * spec.n
            for x, w in self.mcv(key):
                idx = sum(a * s for a, s in zip(x, st))
                for p in range(spec.n):
                    if x[p]:
                        value[p] += w
                        surplus[p] += w - levels[idx - st[p]]
            total = sum(surplus)
            return {
                "potential_value": value,
                "surplus_variant": surplus,
                "normalized_variant": [q / total for q in surplus],
            }
        return self._memo(("values", key), compute)

    def merge_axiom_holds(self, v: str, w: str) -> bool:
        """A4: the normalized surplus of the maximum is the average of both
        normalized surpluses weighted by their criticality totals."""
        cv = sum(self.jk_values(v)["surplus_variant"])
        cw = sum(self.jk_values(w)["surplus_variant"])
        pairs = zip(self.jk_values(v)["normalized_variant"], self.jk_values(w)["normalized_variant"])
        expected = [(cv * a + cw * b) / (cv + cw) for a, b in pairs]
        return self.jk_values((v, w))["normalized_variant"] == expected

    def mwc(self, name: str) -> list[tuple[tuple[int, ...], Fraction]]:
        spec = self.workload.specs[name]
        gens = {frozenset(g) for g in spec.generators}
        minimal = [g for g in gens if not any(h < g for h in gens)]
        ordered = sorted(minimal, key=lambda g: _mask_of(g, spec.n))
        return [(tuple(sorted(g)), Fraction(1)) for g in ordered]

    def tu_listing(self, name: str, family: str):
        spec = self.workload.specs[name]
        return self._memo(("tu", name, family), lambda: [
            (_coalition_of(m, spec.n), spec.worths[m]) for m in tu_family(spec.n, spec.worths, family)
        ])

    def null_players(self, name: str) -> list[int]:
        spec = self.workload.specs[name]
        levels = self.levels(name)
        st = strides(spec.n, spec.j)
        return [
            p + 1
            for p in range(spec.n)
            if all(
                levels[idx] == levels[idx + st[p]]
                for idx, x in enumerate(itertools.product(range(spec.j), repeat=spec.n))
                if x[p] < spec.j - 1
            )
        ]

    def merge_violations(self, v: str, w: str) -> int:
        count = 0
        for x, wx in self.mcv(v):
            for y, wy in self.mcv(w):
                count += x == y
                count += all(a <= b for a, b in zip(x, y)) and not wx < wy
                count += all(a >= b for a, b in zip(x, y)) and not wx > wy
        return count

    # -- expected extract per request -----------------------------------------

    def expected(self, req: Request) -> tuple[int, Extract]:
        """(exit status, expected extract) of a request."""
        name = req.games[0]
        spec = self.workload.specs[name]
        if not spec.monotone and spec.kind == "jk":
            return 1, {}
        cmd = req.command
        if spec.kind == "jk" and cmd in ("analyze", "mcv"):
            mcv = self.mcv(name)
            out = {"listing": mcv}
            if cmd == "analyze":
                out["values"] = self.jk_values(name)
                out["potential"] = sum(w for _, w in mcv)
                out["lambda"] = sum(w * sum(1 for a in x if a) for x, w in mcv)
            return 0, out
        if spec.kind == "jk" and cmd == "potential":
            total = sum(w for _, w in self.mcv(name))
            return 0, {"direct": total, "recursive": total, "match": True}
        if cmd == "average":
            return 0, self._expected_average(name)
        if cmd == "axioms":
            if len(req.games) == 2 and self.merge_violations(*req.games):
                return 1, {}
            statuses = [
                ("A1", "pass" if self.null_players(name) else "vacuous"),
                ("A2", "pass"),
                ("A3", "pass" if len(self.mcv(name)) == 1 else "vacuous"),
                ("A4", "skipped" if len(req.games) == 1
                 else "pass" if self.merge_axiom_holds(*req.games) else "fail"),
            ]
            return 0, {"axioms": statuses}
        if cmd == "merge":
            count = self.merge_violations(*req.games)
            return 0, {"mergeable": count == 0, "violations": count, "union": True if count == 0 else None}
        if spec.kind == "simple" and cmd in ("analyze", "mcv"):
            mwc = self.mwc(name)
            out = {"listing": mwc}
            if cmd == "analyze":
                raw = _values_from(spec.n, mwc)
                out["values"] = {"raw_pgi": raw, "normalized_pgi": [q / sum(raw) for q in raw]}
            return 0, out
        if spec.kind == "simple" and cmd == "embed":
            return 0, {}
        if spec.kind == "tu":
            listing = self.tu_listing(name, req.family)
            out = {"listing": listing}
            if cmd == "analyze":
                out["values"] = {"tu_pgv": _values_from(spec.n, listing)}
                out["potential"] = sum(w for _, w in listing)
                out["lambda"] = sum(w * len(S) for S, w in listing)
            return 0, out
        raise ValueError(f"no expectation for {req.rid}")

    def _expected_average(self, name: str) -> Extract:
        spec = self.workload.specs[name]
        values = self.jk_values(name)
        return {
            "scale": Fraction(1, spec.j ** spec.n * (spec.k - 1)),
            "values": {
                "potential_value": values["potential_value"],
                "surplus_variant": values["surplus_variant"],
            },
        }

    # -- the check ------------------------------------------------------------

    def check(self, req: Request, status: int, out: str, err: str, twin=None) -> list[str]:
        """Problems with one response; ``twin`` is the (status, out, err)
        of the same request in the other format, if the run has it."""
        problems = []
        if "Traceback" in err:
            return [f"{req.rid}: traceback on stderr"]
        try:
            want_status, want = self.expected(req)
        except OracleMismatch as exc:
            return [f"{req.rid}: {exc}"]
        if status != want_status:
            return [f"{req.rid}: exit status {status}, expected {want_status}"]
        if want_status != 0:
            if out or not err.startswith("error:"):
                problems.append(f"{req.rid}: a rejection must print only an error: line")
            return problems
        if err:
            problems.append(f"{req.rid}: unexpected stderr {err[:80]!r}")
        try:
            got = self.extract(req.command, req.fmt, out)
            if got.pop("inconsistent", False):
                problems.append(f"{req.rid}: reports disagree on listing or totals")
            problems += self._compare(req, want, got)
            problems += self._extra_checks(req, got)
        except PARSE_ERRORS as exc:
            return problems + [f"{req.rid}: unparsable or incomplete response ({exc!r})"]
        if twin is not None and twin[0] == 0:
            other = "machine" if req.fmt == "table" else "table"
            try:
                theirs = self.extract(req.command, other, twin[1])
            except PARSE_ERRORS:
                theirs = {}  # reported when the twin itself is checked
            for key in set(got) & set(theirs) - {"doc"}:
                if got[key] != theirs[key]:
                    problems.append(f"{req.rid}: {key} differs between table and machine format")
        return problems

    def cross_check(self, responses: dict) -> dict[str, str]:
        """On monotone TU games the minimal critical and real gaining
        families must coincide: compare the two machine-format analyses."""
        problems = {}
        for req in self.workload.requests:
            spec = self.workload.specs[req.games[0]]
            if (req.command, req.family, req.fmt, spec.kind) != ("analyze", "mcc", "machine", "tu"):
                continue
            other = req.rid.replace("analyze-mcc/", "analyze-rgc/")
            if not tu_monotone(spec.n, spec.worths) or other not in responses:
                continue
            try:
                mcc = parse_machine("analyze", responses[req.rid][1])["listing"]
                rgc = parse_machine("analyze", responses[other][1])["listing"]
            except PARSE_ERRORS:
                continue  # reported by check()
            if mcc != rgc:
                problems[req.rid] = f"{req.rid}: mcc and rgc differ on a monotone game"
        return problems

    @staticmethod
    def extract(command: str, fmt: str, out: str) -> Extract:
        if command == "embed":
            return {"doc": json.loads(out)}
        if fmt == "machine":
            return parse_machine(command, out)
        return parse_table(command, out)

    def _compare(self, req: Request, want: Extract, got: Extract) -> list[str]:
        problems = []
        for key, value in want.items():
            if key == "values":
                for variant, expected in value.items():
                    if got.get("values", {}).get(variant) != expected:
                        problems.append(f"{req.rid}: {variant} values differ from expected")
            elif got.get(key, "missing") != value:
                problems.append(f"{req.rid}: {key} differs from expected")
        return problems

    def _extra_checks(self, req: Request, got: Extract) -> list[str]:
        name = req.games[0]
        spec = self.workload.specs[name]
        problems = []
        values = got.get("values", {})
        for variant in ("normalized_variant", "normalized_pgi"):
            if variant in values and sum(values[variant]) != 1:
                problems.append(f"{req.rid}: {variant} does not sum to 1")
        if "listing" in got and "potential" in got:
            if sum(w for _, w in got["listing"]) != got["potential"]:
                problems.append(f"{req.rid}: potential is not the sum of the listing")
        if req.command == "embed":
            problems += self._check_embed(req, got["doc"])
        if req.command == "average":
            problems += self._check_average(req, got)
        if spec.kind == "tu" and req.fmt == "machine" and req.command == "analyze":
            if got["doc"]["game"]["monotone"] != tu_monotone(spec.n, spec.worths):
                problems.append(f"{req.rid}: wrong monotone flag")
        return problems

    def _check_embed(self, req: Request, doc) -> list[str]:
        spec = self.workload.specs[req.games[0]]
        gens = [_mask_of(g, spec.n) for g in spec.generators]
        table = [int(any(mask & g == g for g in gens)) for mask in range(1 << spec.n)]
        want = {"kind": "jk", "n": spec.n, "j": 2, "k": 2, "table": table}
        return [] if doc == want else [f"{req.rid}: embedded table differs from expected"]

    def _check_average(self, req: Request, got: Extract) -> list[str]:
        """Monotone worths in [0, 1]; a sample of worths equal to the
        package's single-coalition oracle; the TU value of the returned
        average game and the equality flag recomputed from those worths."""
        name = req.games[0]
        spec = self.workload.specs[name]
        worths = got["worths"]
        n = spec.n
        flat = [worths.get(_coalition_of(m, n)) for m in range(1 << n)]
        if None in flat:
            return [f"{req.rid}: average game is missing coalitions"]
        problems = []
        if not tu_monotone(n, flat) or not all(0 <= q <= 1 for q in flat):
            problems.append(f"{req.rid}: average game is not monotone in [0, 1]")
        game = self.oracles.games.JKGame(n, spec.j, spec.k, tuple(self.levels(name)))
        rng = random.Random(req.rid)
        sample = [0, (1 << n) - 1] + [1 << b for b in range(n)] + rng.sample(range(1 << n), 4)
        for mask in sample:
            members = _coalition_of(mask, n)
            if flat[mask] != self.oracles.average.average_worth_oracle(game, members):
                problems.append(f"{req.rid}: average worth of {set(members)} differs from the oracle")
        listing = [(_coalition_of(m, n), flat[m]) for m in tu_family(n, flat, "mcc")]
        pgv = _values_from(n, listing)
        if got["values"].get("tu_pgv") != pgv:
            problems.append(f"{req.rid}: PGV of the average game differs from expected")
        jk = got["values"].get("potential_value", [])
        equal = sum(pgv) > 0 and sum(jk) > 0 and [q / sum(pgv) for q in pgv] == [q / sum(jk) for q in jk]
        if got.get("equal") != equal:
            problems.append(f"{req.rid}: equal-after-normalization flag is wrong")
        return problems
