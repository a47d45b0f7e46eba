"""Span tracer that instruments the ``sps_bb84`` package from outside.

``Tracer.install`` replaces every public function of the package modules
at each module-level name it is bound to.  Callers resolve those names at
call time, so calls between modules and calls a module makes to its own
functions (``keyrate.click_terms`` inside ``keyrate``) all record a span.
Private helpers (``_simulate_chunk``, ``_deadtime_keep_mask``) stay
unwrapped: their time is self time of the public function that runs them.

A span records its id, its parent's id, name, start and end, and a few
record counts.  The spans of one op stay in memory until the op ends and
are then taken together; ``attribute_busy`` splits the op's wall time
among them as self time, so the self times of one op sum to the wall
time of its root spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import types
from typing import NamedTuple

PACKAGE = "sps_bb84"
LAYERS = (
    "cli",
    "params",
    "montecarlo",
    "keygen",
    "finitekey",
    "keyrate",
    "tagproc",
    "polcomp",
)

# spans that also read process CPU time, to show whether their thread
# pools run on more than one core
CPU_SPANS = frozenset({"montecarlo.simulate_run", "keyrate.sweep"})
NO_PARENT = -1


def _simulate_run_counts(args, kwargs, result):
    return {"pulses": args[0].n_pulses, "tags": len(result[1])}


def _g2_counts(args, kwargs, result):
    return {"pulses": args[0].n_pulses}


def _write_tags_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _sift_counts(args, kwargs, result):
    z_key, x_key = result
    return {"bits": len(z_key) + len(x_key)}


def _reconcile_counts(args, kwargs, result):
    return {"parity_bits": int(result[1])}


def _compensate_counts(args, kwargs, result):
    return {"probes": result.iterations - args[0].iterations}


def _sweep_counts(args, kwargs, result):
    return {"points": len(result)}


# what a few functions' arguments and results say about the work done
COUNT_HOOKS = {
    "montecarlo.simulate_run": _simulate_run_counts,
    "montecarlo.simulate_g2_histogram": _g2_counts,
    "montecarlo.write_tags": _write_tags_counts,
    "keygen.sift": _sift_counts,
    "keygen.reconcile": _reconcile_counts,
    "polcomp.compensate": _compensate_counts,
    "keyrate.sweep": _sweep_counts,
}


class Span(NamedTuple):
    """Field names of the plain tuple recorded per call.

    The tuple is made when the call returns.  A tuple of plain values
    drops out of the garbage collector's scans, so an op with many spans
    does not slow the collections that run inside it.
    """

    id: int
    parent: int
    name: str
    start: float
    end: float
    cpu: float
    counts: dict | None
    error: str | None


class Tracer:
    """Collects spans of the calls into the package, one op at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._bindings: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        want_cpu = name in CPU_SPANS
        record = self.spans.append
        next_id = self._ids.__next__
        local = self._local
        main_stack = self._main_stack
        clock = time.perf_counter
        cpu_clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next_id()
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            # a span opened on a pool thread belongs to the span the main
            # thread is inside, which is the call that started the pool
            if stack:
                parent = stack[-1]
            elif main_stack:
                parent = main_stack[-1]
            else:
                parent = NO_PARENT
            stack.append(span_id)
            error = None
            cpu = cpu_clock() if want_cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                if want_cpu:
                    cpu = cpu_clock() - cpu
                stack.pop()
                if error is not None:
                    record((span_id, parent, name, start, end, cpu, None,
                            error))
            counts = hook(args, kwargs, result) if hook is not None else None
            record((span_id, parent, name, start, end, cpu, counts, None))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public package function at every name bound to it."""
        if not self._bindings:
            modules = [importlib.import_module(PACKAGE)] + [
                importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS
            ]
            for module in modules:
                for attr, value in vars(module).items():
                    if (
                        isinstance(value, types.FunctionType)
                        and not attr.startswith("_")
                        and value.__module__.startswith(PACKAGE + ".")
                    ):
                        self._bindings.append((module, attr, value))
            for _, _, fn in self._bindings:
                if id(fn) not in self._wrappers:
                    layer = fn.__module__.rpartition(".")[2]
                    self._wrappers[id(fn)] = self._wrap(
                        f"{layer}.{fn.__name__}", fn
                    )
        for module, attr, fn in self._bindings:
            setattr(module, attr, self._wrappers[id(fn)])
        self._local.stack = self._main_stack

    def uninstall(self) -> None:
        for module, attr, fn in self._bindings:
            setattr(module, attr, fn)

    def take(self) -> list[Span]:
        """Return the spans recorded since the last call and forget them."""
        spans = [Span._make(span) for span in self.spans]
        self.spans.clear()
        return spans


def attribute_busy(spans: list[Span]) -> dict[int, float]:
    """Self time of each span, keyed by span id.

    Every instant inside a root span goes to the innermost spans open at
    that instant.  When several are open at once, on pool threads, the
    instant is split evenly among them, so the self times still add up
    to the wall time the root spans cover.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span.id, span.parent))
        events.append((span.end, 0, span.id, span.parent))
    # at equal times close spans before opening new ones
    events.sort()
    busy = dict.fromkeys((span.id for span in spans), 0.0)
    open_children = dict.fromkeys(busy, 0)
    active: set[int] = set()
    leaves: set[int] = set()
    last = 0.0
    for moment, opening, key, parent in events:
        if leaves and moment > last:
            share = (moment - last) / len(leaves)
            for leaf in leaves:
                busy[leaf] += share
        last = moment
        if opening:
            active.add(key)
            leaves.add(key)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(key)
            leaves.discard(key)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return busy


def summarize_op(spans: list[Span]) -> dict:
    """Per-op totals per span name, and the call counts the metrics use."""
    busy = attribute_busy(spans)
    names = {span.id: span.name for span in spans}
    parents = {span.id: span.parent for span in spans}

    def has_ancestor(span: Span, name: str) -> bool:
        node = span.parent
        while node != NO_PARENT and names[node] != name:
            node = parents[node]
        return node != NO_PARENT

    by_name: dict[str, dict] = {}
    for span in spans:
        entry = by_name.setdefault(
            span.name,
            {"busy_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "calls": 0,
             "errors": 0, "counts": {}},
        )
        entry["busy_s"] += busy[span.id]
        entry["wall_s"] += span.end - span.start
        entry["cpu_s"] += span.cpu
        entry["calls"] += 1
        if span.error is not None:
            entry["errors"] += 1
        for key, value in (span.counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return {
        "by_name": by_name,
        "click_terms_in_sweep": sum(
            1 for span in spans
            if span.name == "keyrate.click_terms"
            and has_ancestor(span, "keyrate.sweep")
        ),
        "skb_per_pulse_in_mtl": sum(
            1 for span in spans
            if span.name == "keyrate.skb_per_pulse"
            and has_ancestor(span, "keyrate.max_tolerable_loss")
        ),
        "n_spans": len(spans),
    }


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [span._asdict() for span in sorted(spans)]
