"""Fingerprint the CLI's output on a fixed request matrix, to compare two
versions of the package byte for byte.

Builds the game files of the three benchmark workloads for the given seeds
(default 1 and 2) in a temporary directory, with ``bench/workloads.py``
used read-only, adds ``tests/data/*.json``, and runs every request through
``pgindex.cli.main`` in-process with file names relative to that
directory. Prints one ``argv<TAB>sha256(stdout, stderr, exit status)`` line
per request and writes nothing into the checkout. The package is whichever
``pgindex`` is importable, so run it twice with ``PYTHONPATH`` set to each
version's ``src`` and ``diff`` the outputs (see the README, "Tests").

Requests, per file: ``analyze``, ``mcv``, ``embed``, ``average`` and
``axioms`` in both formats, each plain, with ``--oracle`` and with
``--family rgc``; ``potential`` in both formats where the table has at
most 3^7 entries; and ``merge`` and two-game ``axioms`` in both formats on
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
POTENTIAL_MAX_ENTRIES = 3 ** 7


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
