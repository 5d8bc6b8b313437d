"""Median process time of every request of one workload, run in process.

Builds the game files of one benchmark workload for one seed (default 1)
in a temporary directory, with ``bench/workloads.py`` used read-only, and
runs each request ``--repeat`` times through ``pgindex.cli.main`` with
file names relative to that directory. Prints one ``argv<TAB>median ms``
line per request, in the workload's order, then the sum of the medians.
Interpreter start-up and imports are paid once, so the times show the
work of loading, the kernels and rendering that start-up hides in the
end-to-end numbers of ``bench/run.py``. Writes nothing into the checkout.
The package is whichever ``pgindex`` is importable, so run it with
``PYTHONPATH`` set to each version's ``src`` to compare two versions.

    PYTHONPATH=src python tools/inproc.py coalition [--seed 1] [--repeat 5]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
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


def timed(argv: list[str], repeat: int) -> float:
    """Median process time of ``main(argv)`` in ms, output discarded."""
    samples = []
    for _ in range(repeat):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.process_time()
            main(argv)
            samples.append(time.process_time() - start)
    return 1000 * statistics.median(samples)


def run(name: str, seed: int, repeat: int) -> None:
    print(f"# pgindex from {Path(pgindex.__file__).parent}", file=sys.stderr)
    workload = workloads.build(name, seed)
    total = 0.0
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for fname, text in workload.files.items():
            Path(fname).write_text(text, encoding="utf-8")
        for request in workload.requests:
            ms = timed(request.argv, repeat)
            total += ms
            print(f"{' '.join(request.argv)}\t{ms:.2f}", flush=True)
    print(f"# {name} seed {seed}: {len(workload.requests)} requests, "
          f"sum of medians {total:.1f} ms over {repeat} runs each")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5, help="runs per request (default 5)")
    args = parser.parse_args()
    run(args.workload, args.seed, args.repeat)
