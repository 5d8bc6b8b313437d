"""Fingerprint the CLI's output on a fixed request matrix, to compare two
versions of the package byte for byte.

Builds the game files of the three benchmark workloads for the given seeds
(default 1 and 2) in a temporary directory, with ``bench/workloads.py``
used read-only, adds ``tests/data/*.json`` and the inline documents of
``DOCS``, and runs every request through
``pgindex.cli.main`` in-process with file names relative to that
directory. Prints one ``argv<TAB>sha256(stdout, stderr, exit status)`` line
per request and writes nothing into the checkout. The package is whichever
``pgindex`` is importable, so run it twice with ``PYTHONPATH`` set to each
version's ``src`` and ``diff`` the outputs (see the README, "Tests").

Requests, per file: ``analyze``, ``mcv``, ``embed``, ``average`` and
``axioms`` in both formats, each plain, with ``--oracle`` and with
``--family rgc``; ``potential`` in both formats where the table has at
most 2^14 entries; and ``merge`` and two-game ``axioms`` in both formats on
each pair of neighbouring (j,k) files of one directory.

    PYTHONPATH=src python tools/bytecheck.py [SEED ...]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ in the checkout
sys.path.insert(0, str(ROOT / "bench"))

import pgindex  # noqa: E402
import workloads  # noqa: E402
from pgindex.cli import main  # noqa: E402

FORMATS = ("table", "machine")
SINGLE = ("analyze", "mcv", "embed", "average", "axioms")
VARIANTS = ((), ("--oracle",), ("--family", "rgc"))
POTENTIAL_MAX_ENTRIES = 2 ** 14

#: Two coprime denominators of 2,201 digits: their lcm has more than the
#: 4,300 digits of Python's default integer string limit.
_HUGE = ("1/1" + "0" * 2199 + "1", "1/1" + "0" * 2199 + "3")


def _tu(n, worth):
    return {"kind": "tu", "n": n, "worth": worth}


#: Inline game files, name -> document, each written to the directory named
#: by its kind: TU worths in every accepted rational form, files with
#: several faults, of which the first in loading order must win, values
#: one digit beyond the integer digit limit, in-limit worths whose sum is
#: beyond it, and a worth beyond the float range.
DOCS = {
    "mixed": _tu(3, {"1": "3/6", "2": "0.5", "3": "1.5e3", "1,2": " 1/2 ", "1, 3": "1_000",
                     "2,3": "-0", "1,2,3": "-7/4"}),
    "mixed_monotone": _tu(3, {"1": "3/6", "2": "0.5", "3": 2, "1,2": " 1/2 ", "1,3": "1.5e2",
                              "2,3": "5/2", "1,2,3": "1_000"}),
    "negative": _tu(2, {"1": "-1/3", "2": "-0.25", "1,2": "-1e-1"}),
    "key_before_rational": _tu(1, {"x": "1", "1": "a"}),
    "rational_before_key": _tu(1, {"1": "a", "x": "1"}),
    "repeat_before_bad_token": _tu(1, {"1,1,x": "1"}),
    "bad_token_before_repeat": _tu(1, {"x,1,1": "1"}),
    "repeat_before_n": _tu(-1, {"0": "1", "1,1": "2"}),
    "same_coalition_before_cap": _tu(100, {"1,2": "1", "2,1": "2", "1": "1/0"}),
    "rational_before_n": _tu(-2, {"1": "1/0"}),
    "n_before_unknown": _tu(-1, {"5": "1"}),
    "cap_before_unknown": _tu(40, {"41": "1"}),
    "unknown_in_key_order": _tu(2, {"1": "1", "7": "1", "0": "1", "9,0": "1"}),
    "unknown_within_key": _tu(2, {"9,0,1": "1", "1": "1"}),
    "unknown_before_missing": _tu(2, {"": "5", "3": "1"}),
    "missing_before_empty": _tu(2, {"": "5", "1": "1"}),
    "empty_before_denominator": _tu(1, {"": _HUGE[0], "1": _HUGE[1]}),
    "denominator": _tu(2, {"1": _HUGE[0], "2": _HUGE[1], "1,2": "1"}),
    "digits_exponent": _tu(1, {"1": "1e4300"}),
    "digits_mantissa": _tu(1, {"1": "10e4299"}),
    "digits_weight": {"kind": "jk", "n": 1, "j": 2, "k": 2,
                      "weighted": {"weights": ["1e4300"], "thresholds": [1]}},
    "digits_sum": _tu(2, {"1": "9" * 4300, "2": "9" * 4300, "1,2": "9" * 4300}),
    "float_range": _tu(1, {"1": "1" + "0" * 400 + "/3"}),
}


def write_files(tmp: Path, seeds) -> dict[str, list[str]]:
    """Game files by directory, as paths relative to ``tmp``."""
    dirs = {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            sub = f"{name}-{seed}"
            (tmp / sub).mkdir()
            files = workloads.build(name, seed).files
            for fname, text in files.items():
                (tmp / sub / fname).write_text(text, encoding="utf-8")
            dirs[sub] = sorted(f"{sub}/{fname}" for fname in files)
    (tmp / "data").mkdir()
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        (tmp / "data" / path.name).write_bytes(path.read_bytes())
    dirs["data"] = sorted(f"data/{path.name}" for path in (tmp / "data").iterdir())
    for name, doc in DOCS.items():
        rel = f"{doc['kind']}/{name}.json"
        (tmp / doc["kind"]).mkdir(exist_ok=True)
        (tmp / rel).write_text(json.dumps(doc), encoding="utf-8")
        dirs.setdefault(doc["kind"], []).append(rel)
    for files in dirs.values():
        files.sort()
    return dirs


def requests(tmp: Path, dirs: dict[str, list[str]]):
    for files in dirs.values():
        jk = []
        for rel in files:
            doc = json.loads((tmp / rel).read_text(encoding="utf-8"))
            entries = doc["j"] ** doc["n"] if doc["kind"] == "jk" else 2 ** doc["n"]
            for fmt in FORMATS:
                for command in SINGLE:
                    for variant in VARIANTS:
                        yield [command, "--format", fmt, *variant, rel]
                if entries <= POTENTIAL_MAX_ENTRIES:
                    yield ["potential", "--format", fmt, rel]
            if doc["kind"] == "jk":
                jk.append(rel)
        for a, b in zip(jk, jk[1:]):
            for fmt in FORMATS:
                yield ["merge", "--format", fmt, a, b]
                yield ["axioms", "--format", fmt, a, b]


def fingerprint(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except Exception as exc:  # a traceback is an outcome to compare too
            status = f"raised {type(exc).__name__}: {exc}"
    blob = "\0".join((out.getvalue(), err.getvalue(), str(status)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run(seeds) -> None:
    print(f"# pgindex from {Path(pgindex.__file__).parent}", file=sys.stderr)
    start, count = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        dirs = write_files(Path(tmp), seeds)
        for argv in requests(Path(tmp), dirs):
            print(f"{' '.join(argv)}\t{fingerprint(argv)}", flush=True)
            count += 1
    print(f"# {count} requests in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2], metavar="SEED")
    run(parser.parse_args().seeds)
