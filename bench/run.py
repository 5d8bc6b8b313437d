"""End-to-end and per-layer benchmark of ``python -m pgindex``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload jk_weighted --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one client runs the workload's requests in a closed
loop, each as its own ``python -m pgindex`` process, and the run reports
the end-to-end metrics. With ``--trace 1`` the same requests run in this
process through ``pgindex.cli.main`` with the package's functions wrapped
by ``tracing.Tracer``, and the run reports the per-layer metrics. Both verify
every response (``verify.py``); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import verify
import workloads
from tracing import COUNT_METRICS, TIME_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests"

#: Seed whose responses are pinned by the committed digests.
DEFAULT_SEED = 1
SETUP_REPEATS = 5
#: A run measures whole passes over the request list, at least this many.
MIN_PASSES = 2
STARTUP_SAMPLES = 15
PERCENTILE_LADDER = (50, 75, 80, 85, 90, 95, 97.5, 99, 99.5, 99.9)
TAIL_BEYOND = 10

#: The reference process, run after every request: interpreter start plus
#: a fixed pure-Python loop, independent of the program under test.
REFERENCE = ["-c", "s = 0\nfor i in range(200000):\n    s += i * i % 7\n"]
#: Time metrics are rescaled to the machine speed at which the reference
#: takes this long (about its time on an idle 2-core VM); this is a unit
#: definition, not a measurement. See README.md.
REFERENCE_MS = 60.0
#: References on each side of a request that set its scale.
REFERENCE_WINDOW = 1


# ---------------------------------------------------------------------------
# statistics


def tail_level(count: int) -> float:
    """The highest ladder percentile that still has at least TAIL_BEYOND
    of ``count`` samples above its nearest-rank position (100: none has)."""
    best = 100.0
    for p in PERCENTILE_LADDER:
        if count - max(1, math.ceil(p / 100 * count)) >= TAIL_BEYOND:
            best = p
    return best


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def rescale(values, references) -> list[float]:
    """Each value times REFERENCE_MS over the median of the references
    within REFERENCE_WINDOW places of it (values[i] pairs references[i])."""
    out = []
    for i, value in enumerate(values):
        lo, hi = max(0, i - REFERENCE_WINDOW), i + REFERENCE_WINDOW + 1
        out.append(value * REFERENCE_MS / statistics.median(references[lo:hi]))
    return out


# ---------------------------------------------------------------------------
# running the program


@dataclass(frozen=True)
class Response:
    status: int
    out: str
    err: str

    @property
    def digest(self) -> str:
        blob = f"{self.status}\0{self.out}\0{self.err}".encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:20]


@dataclass(frozen=True)
class Sample:
    """One request and the reference run right after it (times in ms)."""

    rid: str
    wall_ms: float
    cpu_ms: float
    maxrss_kb: int
    digest: str
    ref_wall_ms: float
    ref_cpu_ms: float


def child_env(pycache: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def spawn(args: list[str], env: dict, out_path: Path, err_path: Path):
    """Run ``python <args>`` in the current directory and wait for it.
    Returns (response, wall ms, cpu ms, max RSS in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: stop the child before giving up
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    response = Response(
        os.waitstatus_to_exitcode(status),
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
    )
    return response, wall * 1000, (usage.ru_utime + usage.ru_stime) * 1000, usage.ru_maxrss


def files_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()[:20]


class SetupError(Exception):
    pass


def setup(name: str, seed: int, run_dir: Path):
    """Generate the files and make one cold warm-up request, SETUP_REPEATS
    times, each into a fresh directory with a fresh bytecode cache, and run
    the reference three times after each. The last repeat's files and cache
    are the ones the run uses. Returns the set-up times in seconds, each
    with its median reference time in ms."""
    times, digests = [], set()
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.build(name, seed)
        files_dir = run_dir / f"files{rep}"
        files_dir.mkdir(parents=True)
        for fname, text in workload.files.items():
            (files_dir / fname).write_text(text, encoding="utf-8")
        env = child_env(run_dir / f"pycache{rep}")
        with contextlib.chdir(files_dir):
            response, *_ = spawn(["-m", "pgindex", *workload.warmup.argv], env,
                                 run_dir / "out", run_dir / "err")
        elapsed = time.perf_counter() - start
        if response.status != 0:
            raise SetupError(f"warm-up request failed: {response.err.strip()[:200]}")
        refs = [spawn(REFERENCE, env, run_dir / "out", run_dir / "err")[1] for _ in range(3)]
        times.append((elapsed, statistics.median(refs)))
        digests.add(files_digest(workload.files))
    if len(digests) != 1:
        raise SetupError("the same seed gave different files")
    return workload, files_dir, env, times


def timed_loop(workload, files_dir: Path, env: dict, seconds: float, run_dir: Path):
    """Closed loop, one client: whole passes over the request list until at
    least ``seconds`` have gone by and MIN_PASSES passes are done. The
    reference runs after every request."""
    samples: list[Sample] = []
    first: dict[str, Response] = {}
    passes = 0
    start = time.perf_counter()
    with contextlib.chdir(files_dir):
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            for req in workload.requests:
                response, wall, cpu, rss = spawn(
                    ["-m", "pgindex", *req.argv], env, run_dir / "out", run_dir / "err"
                )
                _, ref_wall, ref_cpu, _ = spawn(REFERENCE, env, run_dir / "out", run_dir / "err")
                first.setdefault(req.rid, response)
                samples.append(
                    Sample(req.rid, wall, cpu, rss, response.digest, ref_wall, ref_cpu)
                )
            passes += 1
    return samples, first, passes, time.perf_counter() - start


def load_package():
    """Import the package from the checkout's src/ for the oracles and the
    traced run."""
    sys.path.insert(0, str(SRC))
    import pgindex.average
    import pgindex.cli
    import pgindex.critical
    import pgindex.games

    return SimpleNamespace(
        average=pgindex.average, cli=pgindex.cli, critical=pgindex.critical, games=pgindex.games
    )


# ---------------------------------------------------------------------------
# verification


def check_responses(workload, first: dict[str, Response], pkg) -> dict[str, list[str]]:
    """Problems per request id: the verifier, the mcc = rgc cross-check and,
    for the default seed, the committed digests."""
    verifier = verify.Verifier(workload, pkg)
    problems: dict[str, list[str]] = {}
    for req in workload.requests:
        if req.rid not in first:
            continue
        resp = first[req.rid]
        twin = first.get(req.twin) if req.twin != req.rid else None
        twin = None if twin is None else (twin.status, twin.out, twin.err)
        problems[req.rid] = verifier.check(req, resp.status, resp.out, resp.err, twin)
    for rid, problem in verifier.cross_check(
        {rid: (r.status, r.out, r.err) for rid, r in first.items()}
    ).items():
        problems[rid].append(problem)
    if workload.seed == DEFAULT_SEED:
        pinned = json.loads((DIGESTS / f"{workload.name}.json").read_text())
        if pinned["files"] != files_digest(workload.files):
            problems.setdefault("files", []).append("generated files differ from the digest")
        for rid, resp in first.items():
            if pinned["responses"].get(rid) != resp.digest:
                problems[rid].append(f"{rid}: response differs from the committed digest")
    return problems


def count_failed(attempts, first: dict[str, Response], problems) -> int:
    """Attempts, given as (request id, response digest), that fail: their
    request's first response has problems or they differ from it; plus a
    file set that differs from the committed digest."""
    bad = {rid for rid, found in problems.items() if found}
    failed = sum(1 for rid, digest in attempts if rid in bad or digest != first[rid].digest)
    return failed + len(problems.get("files", ()))


def write_digests(workload, first: dict[str, Response]) -> None:
    doc = {
        "seed": workload.seed,
        "files": files_digest(workload.files),
        "responses": {rid: first[rid].digest for rid in sorted(first)},
    }
    (DIGESTS / f"{workload.name}.json").write_text(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, files_dir, env, setup_times, seconds, run_dir, pkg, update_digest):
    samples, first, passes, loop_wall = timed_loop(workload, files_dir, env, seconds, run_dir)
    if update_digest:
        write_digests(workload, first)
    problems = check_responses(workload, first, pkg)
    failed = count_failed([(s.rid, s.digest) for s in samples], first, problems)
    walls = rescale([s.wall_ms for s in samples], [s.ref_wall_ms for s in samples])
    cpus = rescale([s.cpu_ms for s in samples], [s.ref_cpu_ms for s in samples])
    tail_p = tail_level(MIN_PASSES * len(workload.requests))
    setup_scaled = [elapsed * REFERENCE_MS / ref for elapsed, ref in setup_times]
    metrics = {
        "latency_p50_ms": (statistics.median(walls), "ms"),
        "latency_tail_ms": (percentile(walls, tail_p), "ms"),
        "requests_per_s": (1000 * len(samples) / sum(walls), "1/s"),
        "cpu_ms_per_request": (statistics.median(cpus), "ms"),
        "peak_rss_mb": (max(s.maxrss_kb for s in samples) / 1024, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    raw_walls = [s.wall_ms for s in samples]
    raw = {
        "latency_p50_ms": statistics.median(raw_walls),
        "latency_tail_ms": percentile(raw_walls, tail_p),
        "requests_per_s": len(samples) / (sum(raw_walls) / 1000),
        "cpu_ms_per_request": statistics.median(s.cpu_ms for s in samples),
        "setup_s": statistics.median(elapsed for elapsed, _ in setup_times),
        "reference_ms": statistics.median(s.ref_wall_ms for s in samples),
    }
    cases = {}
    for req in workload.requests:
        if req.case:
            times = [w for s, w in zip(samples, walls) if s.rid == req.rid]
            cases[f"{req.case}: {req.command} --format {req.fmt}"] = round(statistics.median(times), 1)
    info = {
        "tail_percentile": tail_p,
        "requests": len(samples),
        "passes": passes,
        "loop_s": round(loop_wall, 2),
        "error_rate": failed / len(samples),
        "unscaled": {k: round(v, 4) for k, v in raw.items()},
        "baseline_cases_p50_ms": cases,
    }
    return metrics, info, len(samples), failed, problems


def traced(workload, files_dir, env, seconds, run_dir, pkg, trace_path):
    """Alternate untraced and traced in-process passes over the request
    list; per-layer metrics come from the traced ones, the overhead ratio
    from each traced pass against the untraced pass before it."""
    startup = []
    with contextlib.chdir(files_dir):
        for _ in range(STARTUP_SAMPLES):
            response, wall, _, _ = spawn(["-c", "import pgindex.cli"], env,
                                         run_dir / "out", run_dir / "err")
            if response.status != 0:
                raise SetupError(f"import failed: {response.err.strip()[:200]}")
            startup.append(wall)
    cli = pkg.cli
    original_run = cli.run
    captured = {}

    def capturing_run(request, out=None, err=None):
        out_buf, err_buf = io.StringIO(), io.StringIO()
        try:
            return original_run(request, out=out_buf, err=err_buf)
        finally:
            captured["out"], captured["err"] = out_buf.getvalue(), err_buf.getvalue()

    first: dict[str, Response] = {}
    attempts: list[tuple[str, str]] = []
    walls = {False: [], True: []}
    tracers: list[Tracer] = []
    output_bytes = []

    def one_pass(tracer: Tracer | None) -> None:
        if tracer is not None:
            tracer.instrument()
        total_out = 0
        start = time.perf_counter()
        try:
            for number, req in enumerate(workload.requests):
                captured.clear()
                if tracer is not None:
                    tracer.request = number
                    sid = tracer.open("request", None)
                try:
                    status = cli.main(req.argv)
                except SystemExit as exc:
                    status = exc.code if isinstance(exc.code, int) else 2
                finally:
                    if tracer is not None:
                        tracer.close(sid)
                resp = Response(status, captured.get("out", ""), captured.get("err", ""))
                total_out += len(resp.out.encode("utf-8"))
                first.setdefault(req.rid, resp)
                attempts.append((req.rid, resp.digest))
        finally:
            if tracer is not None:
                tracer.restore()
        walls[tracer is not None].append(time.perf_counter() - start)
        if tracer is not None:
            tracers.append(tracer)
            output_bytes.append(total_out)

    cli.run = capturing_run
    start = time.perf_counter()
    try:
        with contextlib.chdir(files_dir):
            while not tracers or time.perf_counter() - start < seconds:
                one_pass(None)
                one_pass(Tracer())
    finally:
        cli.run = original_run
    with open(trace_path, "w", encoding="utf-8") as handle:
        for number, tracer in enumerate(tracers):
            tracer.write(handle, traced_pass=number)

    problems = check_responses(workload, first, pkg)
    failed = count_failed(attempts, first, problems)
    metrics = {"cli.startup_ms": (statistics.median(startup), "ms")}
    per_pass = [t.layer_ms() for t in tracers]
    for name in TIME_METRICS:
        metrics[name] = (statistics.median(p[name] for p in per_pass), "ms")
    counters = tracers[0].counters
    counters["cli.output_bytes"] = output_bytes[0]
    for name in COUNT_METRICS:
        metrics[name] = (counters[name], "bytes" if name.endswith("_bytes") else "count")
    calls = counters["critical.enumerate_calls"]
    metrics["critical.calls_per_request"] = (calls / len(workload.requests), "count")
    scanned = counters["critical.entries_scanned"]
    found = counters["critical.structures_found"]
    metrics["critical.found_per_entry"] = (found / scanned if scanned else 0.0, "ratio")
    ratios = [t / u for u, t in zip(walls[False], walls[True])]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    info = {"requests": len(attempts), "traced_passes": len(tracers),
            "requests_per_pass": len(workload.requests),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info, len(attempts), failed, problems


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-digest", action="store_true",
        help="rewrite digests/<workload>.json from this run (default seed only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so that the cleanup below runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pgindex" / "__main__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'pgindex'} is missing", file=sys.stderr)
        return 2
    if args.update_digest and args.seed != DEFAULT_SEED:
        print(f"error: digests are pinned for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload, files_dir, env, setup_times = setup(args.workload, args.seed, run_dir)
        sys.pycache_prefix = str(run_dir / "pycache-bench")
        pkg = load_package()
        if args.trace:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, info, attempted, failed, problems = traced(
                workload, files_dir, env, args.seconds, run_dir, pkg, trace_path)
        else:
            metrics, info, attempted, failed, problems = end_to_end(
                workload, files_dir, env, setup_times, args.seconds, run_dir, pkg,
                args.update_digest)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for found in problems.values():
        for problem in found[:3]:
            print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **info,
    }
    print("# run " + json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
