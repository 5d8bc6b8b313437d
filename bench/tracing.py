"""Layer tracing from outside the package.

``Tracer.instrument`` replaces the package's public functions, in every
``pgindex`` module namespace (and module-level dispatch dict) that holds
them, with wrappers that record spans. Because the package looks its
functions up by name at call time, nested calls get parent spans without
any change to the package. ``restore`` puts the originals back.

Spans are kept in memory as ``[name, metric, start, end, parent, request]``
and written out once, by ``write``. A layer's self time is its span's
duration minus the part of that interval covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

NAME, METRIC, START, END, PARENT, REQUEST = range(6)


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined, which self-time metric
    its spans feed (None: no span, count calls only), and a counting hook
    called as ``count(tracer, span_index, args, result)`` after a normal
    return (span_index is None when there is no span)."""

    module: str
    name: str
    metric: str | None
    count: Callable | None = None


def _table_entries(game) -> int:
    if hasattr(game, "levels"):
        return len(game.levels)
    if hasattr(game, "worths"):
        return len(game.worths)
    return 1 << game.n


def _count_build(tracer, sid, args, result):
    tracer.counters["games.table_entries"] += _table_entries(result)


def _count_closure(tracer, sid, args, result):
    _count_build(tracer, sid, args, result)
    n, generators = args[0], args[1]
    tracer.counters["games.closure_pairs"] += len(generators) * (1 << n)


def _count_load(tracer, sid, args, result):
    parent = tracer.spans[sid][PARENT]
    if parent is not None and tracer.spans[parent][NAME] == "load_game":
        return  # the bytes were counted by the enclosing load_game
    if tracer.spans[sid][NAME] == "load_game":
        tracer.counters["gamefile.input_bytes"] += os.path.getsize(args[0])
    else:
        tracer.counters["gamefile.input_bytes"] += len(args[0].encode("utf-8"))


def _count_found(tracer, sid, args, result):
    tracer.counters["critical.enumerate_calls"] += 1
    tracer.counters["critical.structures_found"] += len(result)
    game = args[0]
    scanned = len(game.winning) if hasattr(game, "winning") else _table_entries(game)
    tracer.counters["critical.entries_scanned"] += scanned
    tracer.found[sid] = len(result)


def _count_subgame(tracer, sid, args, result):
    tracer.counters["indices.subgames"] += 1


def _count_lookups(tracer, sid, args, result):
    game = args[0]
    tracer.counters["average.lookups"] += 2 * (1 << game.n) * game.j ** game.n


def _count_cross_pairs(tracer, sid, args, result):
    sizes = [tracer.found[c] for c in tracer.children(sid) if c in tracer.found]
    if len(sizes) >= 2:
        tracer.counters["algebra.cross_pairs"] += sizes[0] * sizes[1]


_VALUE_FUNCTIONS = (
    "public_good_value_jk", "variant_value", "normalized_variant", "jk_potential",
    "lambda_total", "pgi_raw", "pgi_normalized", "pgv_tu", "tu_potential",
    "total_criticality",
)

TARGETS = (
    Target("gamefile", "load_game", "gamefile.load_ms", _count_load),
    Target("gamefile", "loads_game", "gamefile.load_ms", _count_load),
    Target("games", "make_weighted_game", "games.build_ms", _count_build),
    Target("games", "make_table_game", "games.build_ms", _count_build),
    Target("games", "simple_game_from_generators", "games.build_ms", _count_closure),
    Target("games", "make_tu_game", "games.build_ms", _count_build),
    Target("games", "subgame", None, _count_subgame),
    Target("critical", "minimal_critical_vectors", "critical.enumerate_ms", _count_found),
    Target("critical", "minimal_winning_coalitions", "critical.enumerate_ms", _count_found),
    Target("critical", "minimal_critical_coalitions", "critical.enumerate_ms", _count_found),
    Target("critical", "real_gaining_coalitions", "critical.enumerate_ms", _count_found),
    *(Target("indices", name, "indices.value_ms") for name in _VALUE_FUNCTIONS),
    Target("indices", "jk_potential_recursive", "indices.recursive_ms"),
    Target("average", "average_game", "average.reduce_ms", _count_lookups),
    Target("average", "compare_pgv_vs_jk", "average.compare_ms"),
    Target("algebra", "is_mergeable", "algebra.merge_ms", _count_cross_pairs),
    Target("algebra", "mcv_union_check", "algebra.merge_ms"),
    Target("algebra", "axiom_report", "algebra.axioms_ms"),
)

#: Self-time metrics, in the order they are reported.
TIME_METRICS = (
    "gamefile.load_ms", "games.build_ms", "critical.enumerate_ms", "indices.value_ms",
    "indices.recursive_ms", "average.reduce_ms", "average.compare_ms",
    "algebra.merge_ms", "algebra.axioms_ms", "cli.render_ms",
)
COUNT_METRICS = (
    "gamefile.input_bytes", "games.table_entries", "games.closure_pairs", "games.rejected",
    "critical.enumerate_calls", "critical.structures_found", "indices.subgames",
    "average.lookups", "algebra.cross_pairs", "cli.output_bytes",
)


class Tracer:
    """Spans and counters for one traced pass (or several)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.counters: Counter = Counter()
        self.found: dict[int, int] = {}
        self._patches: list[tuple[dict, str, object]] = []
        self._error_type = Exception

    # -- span recording ---------------------------------------------------

    def open(self, name: str, metric: str | None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, metric, self.clock(), None, parent, self.request])
        sid = len(self.spans) - 1
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = self.clock()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.spans[sid][NAME]} closed out of order")

    def children(self, sid: int) -> list[int]:
        return [c for c, span in enumerate(self.spans) if span[PARENT] == sid]

    # -- instrumentation --------------------------------------------------

    def _wrap(self, fn, metric: str | None, count=None):
        tracer = self

        if metric is None:
            # counted only: no span, so the call's time stays in its caller

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(tracer, None, args, result)
                return result

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(fn.__name__, metric)
            try:
                result = fn(*args, **kwargs)
            except tracer._error_type:
                if metric == "games.build_ms":
                    tracer.counters["games.rejected"] += 1
                raise
            finally:
                tracer.close(sid)
            if count is not None:
                count(tracer, sid, args, result)
            return result

        return wrapper

    def instrument(self) -> None:
        """Wrap every target and every CLI command handler."""
        self._error_type = importlib.import_module("pgindex.errors").GameError
        cli = importlib.import_module("pgindex.cli")  # imports every module
        replace: dict[int, object] = {}
        for target in TARGETS:
            fn = getattr(importlib.import_module(f"pgindex.{target.module}"), target.name)
            replace[id(fn)] = self._wrap(fn, target.metric, target.count)
        for fn in cli._HANDLERS.values():
            replace[id(fn)] = self._wrap(fn, "cli.render_ms")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "pgindex"]
        for module in modules:
            namespace = vars(module)
            holders = [namespace] + [v for v in namespace.values() if type(v) is dict]
            for holder in holders:
                for key, value in list(holder.items()):
                    wrapper = replace.get(id(value))
                    if wrapper is not None:
                        self._patches.append((holder, key, value))
                        holder[key] = wrapper

    def restore(self) -> None:
        for holder, key, original in reversed(self._patches):
            holder[key] = original
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                kids.setdefault(span[PARENT], []).append((span[START], span[END]))
        out = []
        for sid, span in enumerate(self.spans):
            covered = 0.0
            reach = span[START]
            for start, end in sorted(kids.get(sid, ())):
                start, end = max(start, reach), min(end, span[END])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[END] - span[START] - covered)
        return out

    def layer_ms(self) -> dict[str, float]:
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            if span[METRIC] is not None:
                totals[span[METRIC]] = totals.get(span[METRIC], 0.0) + own * 1000.0
        return totals

    def write(self, handle, **tags) -> None:
        """Write every span as one JSON line, with its self time and tags."""
        keys = ("name", "metric", "start", "end", "parent", "request")
        for span, own in zip(self.spans, self.self_times()):
            record = dict(zip(keys, span), self=own, **tags)
            handle.write(json.dumps(record) + "\n")
