"""``python -m pgindex``, and the ``pgindex`` console script's entry."""

import atexit
import os
import sys

from .cli import main


def console_entry() -> None:
    """Run :func:`pgindex.cli.main` as a program and end the process.

    Once the output is flushed and the ``atexit`` handlers have run, the
    process ends by ``os._exit``: module teardown would only free memory
    that the exit frees anyway, and took about a seventh of a request.
    The normal ``sys.exit`` path runs instead when ``main`` raises
    (argparse's ``SystemExit`` included), when a flush fails, under a
    trace or profile function (coverage, ``cProfile``), under a debugger
    and under ``python -i``. A failed write of the output ends the run with
    status 1 and no traceback: one ``error:`` line, as for ``--output``,
    or none when the reader closed the pipe early."""
    try:
        status = main()
        sys.stdout.flush()
        sys.stderr.flush()
        if sys.gettrace() or sys.getprofile() or sys.flags.inspect or "bdb" in sys.modules:
            sys.exit(status)
        atexit._run_exitfuncs()
        sys.stdout.flush()  # what the handlers wrote
        sys.stderr.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        # the rest goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    os._exit(status)


if __name__ == "__main__":
    console_entry()
