"""Spans around calls into sigpole's public functions, from outside ``src/``.

While a ``Tracer`` is installed, each traced public function is rebound, in
every sigpole module that imported it, to a wrapper that records a span
(name, start, end, parent, item).  Nested calls such as
signature -> quadrature -> blowup therefore show up as child spans.  Spans
stay in memory; ``self_times`` subtracts the part of a span its children
cover.  ``uninstall`` restores the original bindings.  Each thread keeps its
own span stack.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# public functions traced per module; BlowupChart methods are patched on the class
TRACED = {
    "pairings": ["all_pair_partitions", "enumerate_refining"],
    "poles": ["candidate_poles", "candidate_poles_for_word"],
    "signature": ["candidate_pole_report", "mean_iterated_integral", "gamma_table"],
    "quadrature": ["l_direct_mc", "l_pullback_mc", "l_adaptive", "l_closed_form",
                   "wick_grid_oracle"],
    "verify": ["run_suite"],
}
TRACED_METHODS = {"blowup.BlowupChart": ["F_inverse_batch", "F_inverse_exact_batch",
                                         "flag_ranges"]}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _annotate(name: str, args: tuple, kwargs: dict, result: Any) -> dict:
    """Counts taken at the span boundary, from arguments and results."""
    if name in ("pairings.all_pair_partitions", "pairings.enumerate_refining"):
        return {"matchings": len(result)}
    if name == "poles.candidate_poles":
        return {"size": args[0].size, "progressions": len(result)}
    if name == "poles.candidate_poles_for_word":
        return {"size": len(args[0])}
    if name == "signature.candidate_pole_report":
        return {"refining": [repr(row["partition"]) for row in result["per_partition"]]}
    if name.startswith("quadrature.") or name == "signature.mean_iterated_integral":
        attrs = {"samples": result.samples, "stderr": result.stderr,
                 "value": result.value, "cells": result.cells}
        if name == "quadrature.l_direct_mc":
            attrs["size"] = args[0].size
            attrs["workers"] = kwargs.get("workers", 1)
        if name == "quadrature.l_pullback_mc":
            attrs["accepted"] = result.extra["accepted"]
        return attrs
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = ""
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span and return its result."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(sid, name, start, end, parent, self.item,
                    _annotate(name, args, kwargs, result))
        self.spans.append(span)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- rebinding -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("sigpole") and m]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"sigpole.{mod_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        for qual, names in TRACED_METHODS.items():
            mod_name, cls_name = qual.split(".")
            cls = getattr(sys.modules[f"sigpole.{mod_name}"], cls_name)
            for fname in names:
                original = cls.__dict__[fname]
                self._restore.append((cls, fname, original))
                setattr(cls, fname, self._wrap(f"{mod_name}.{fname}", original))

    def uninstall(self) -> None:
        for owner, fname, original in reversed(self._restore):
            setattr(owner, fname, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return {s.id: s.duration - child_time.get(s.id, 0.0) for s in self.spans}

    def records(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "duration": s.duration, "self": selfs[s.id], "parent": s.parent, "item": s.item,
             "attrs": s.attrs}
            for s in self.spans
        ]
