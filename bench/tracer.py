"""Spans around the public functions of each fflv layer, for the traced run.

The program carries no instrumentation, so the traced worker wraps every
public module-level function of each layer module from outside, replacing the
name in every fflv module that holds it.  `cli`, `rep`, `characters` and
`marked_poset` import functions by name, so patching only the defining module
would miss their calls.  Three methods whose call counts matter are wrapped on
their classes: `TensorSpace.table`, `TensorSpace.apply` and `IntSpan.add`.

Span time is the running thread's CPU time.  `weyl-scan` classifies in a
thread pool, where a wall-clock span would also count the time its thread
waited for the interpreter lock while the other thread ran.  Each thread has
its own span stack; a span's parent is the enclosing span of the same thread,
and its self time is its time minus that of its children.  Spans are kept in
flat arrays and written out once, at the end of the pass.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Optional

LAYERS = ("weyl", "paths", "polytope", "marked_poset", "characters", "rep", "linalg", "cli")
METHODS = {"rep": {"TensorSpace": ("table", "apply")}, "linalg": {"IntSpan": ("add",)}}
COUNTERS = ("polytope.inequalities", "polytope.points",
            "polytope.minkowski_pairs", "polytope.minkowski_sums", "rep.TensorSpace.table.builds",
            "linalg.IntSpan.add.grew", "linalg.IntSpan.width")


def _minkowski(counters: Counter, args, result, _before) -> None:
    counters["polytope.minkowski_pairs"] += len(args[0]) * len(args[1])
    counters["polytope.minkowski_sums"] += len(result)


def _intspan_add(counters: Counter, args, result, _before) -> None:
    counters["linalg.IntSpan.add.grew"] += result is not None
    counters["linalg.IntSpan.width"] = max(counters["linalg.IntSpan.width"], args[0].width)


def _table(counters: Counter, _args, _result, missed) -> None:
    counters["rep.TensorSpace.table.builds"] += missed


# Work counters read off a wrapped call: (before(args), after(counters, args,
# result, before-value)).  They are taken at the layer boundary, where the
# work happens.
HOOKS: dict[str, tuple[Optional[Callable], Callable]] = {
    "polytope.build_inequalities": (
        None, lambda c, a, r, b: c.update({"polytope.inequalities": len(r)})),
    "polytope.enumerate_integer_points": (
        None, lambda c, a, r, b: c.update({"polytope.points": len(r)})),
    "polytope.minkowski_sum": (None, _minkowski),
    "linalg.IntSpan.add": (None, _intspan_add),
    "rep.TensorSpace.table": (lambda a: (a[1], a[2]) not in a[0]._tables, _table),
}


FIELDS = ("name", "span_id", "parent", "case", "thread", "wall_start", "wall_end", "busy", "self_busy")


class Tracer:
    """Collects spans and counters for one worker pass.

    Each thread appends its finished spans, FIELDS values per span, to its
    own flat array, so recording takes no lock; counters share one lock.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.case = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[array] = []

    def install(self) -> None:
        """Wrap every layer's public functions wherever fflv holds them."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fflv" or name.startswith("fflv."))]
        for layer in LAYERS:
            mod = sys.modules[f"fflv.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))

    def _thread_state(self):
        with self._lock:
            buffer = array("q")
            self._buffers.append(buffer)
            self._local.state = state = (len(self._buffers) - 1, [], buffer)
        return state

    def _wrap(self, fn: Callable, qualname: str) -> Callable:
        index = len(self.names)
        self.names.append(qualname)
        before, after = HOOKS.get(qualname, (None, None))
        local, lock, ids, counters = self._local, self._lock, self._ids, self.counters
        cpu, wall = time.thread_time_ns, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or self._thread_state()
            thread, stack, buffer = state
            seen = before(args) if before is not None else None
            entry = [next(ids), 0]
            parent = stack[-1][0] if stack else -1
            stack.append(entry)
            w0 = wall()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = cpu()
                w1 = wall()
                stack.pop()
                busy = c1 - c0
                if stack:
                    stack[-1][1] += busy
                buffer.extend((index, entry[0], parent, self.case, thread, w0, w1, busy,
                               busy - entry[1]))
            if after is not None:
                with lock:
                    after(counters, args, result, seen)
            return result

        return traced

    def columns(self) -> dict[str, list[int]]:
        """Every recorded span, one list per field."""
        width = len(FIELDS)
        cols = {f: [] for f in FIELDS}
        for buffer in self._buffers:
            for k, field in enumerate(FIELDS):
                cols[field].extend(buffer[k::width])
        return cols

    def summary(self) -> dict:
        """Calls and CPU seconds per wrapped name, called or not; self seconds
        per layer; the work counters; the number of threads that ran spans."""
        cols = self.columns()
        calls = Counter(dict.fromkeys(self.names, 0))
        busy = Counter(dict.fromkeys(self.names, 0))
        self_s = Counter()
        for index, b, sb in zip(cols["name"], cols["busy"], cols["self_busy"]):
            name = self.names[index]
            calls[name] += 1
            busy[name] += b
            self_s[name] += sb
        layer_self = Counter(dict.fromkeys(LAYERS, 0))
        for name, ns in self_s.items():
            layer_self[name.split(".", 1)[0]] += ns
        return {
            "calls": dict(calls),
            "s": {name: ns / 1e9 for name, ns in busy.items()},
            "layer_self_s": {layer: layer_self[layer] / 1e9 for layer in LAYERS},
            "counters": dict(self.counters),
            "threads": len(self._buffers),
        }

    def write(self, path) -> None:
        """All spans, column by column, with the name table, as gzipped JSON."""
        data = {"names": self.names, **self.columns()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
