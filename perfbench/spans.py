"""Spans around every call into a layer's public functions.

The benchmark instruments the program from outside: it replaces each public
module-level function of every layer module with a wrapper that records a
span.  The layers call one another through module attributes, so nested
calls nest their spans too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("configio", "simulate", "formats", "imaging", "interferometry", "pointcloud", "cli")
# The CLI's per-stage handlers; their spans give full-precision stage times
# where the `[pipeline] stage` stdout lines are rounded to 10 ms.
CLI_STAGES = ("simulate", "image", "elevate", "pointcloud")


class Recorder:
    """Collects spans as [name, parent index, start, end, cpu start, cpu end].

    Times are time.monotonic() seconds; CPU times are the process-wide
    time.process_time(), so they include every thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            record = [name, stack[-1] if stack else -1, time.monotonic(), None, time.process_time(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = time.process_time()
                record[3] = time.monotonic()
                stack.pop()

        return traced

    def instrument(self) -> None:
        """Wrap every public function defined in each insarmap layer module."""
        for layer in LAYERS:
            module = importlib.import_module(f"insarmap.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))
        cli = importlib.import_module("insarmap.cli")
        for stage in CLI_STAGES:
            handler = f"_cmd_{stage}"
            setattr(cli, handler, self.wrap(f"cli.stage.{stage}", getattr(cli, handler)))


def total(spans, name: str, field: str = "wall") -> float | None:
    """Summed wall (or cpu) seconds of the spans called name; None if absent."""
    lo, hi = (2, 3) if field == "wall" else (4, 5)
    picked = [s[hi] - s[lo] for s in spans if s[0] == name]
    return sum(picked) if picked else None


def layer_self_times(spans) -> dict[str, float]:
    """Per layer, span time minus the time covered by its child spans."""
    child_time = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
    out = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        out[s[0].split(".", 1)[0]] += (s[3] - s[2]) - child_time[i]
    return out
