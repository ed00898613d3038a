"""Spans around calls into sepax's layers, recorded from the benchmark.

The program itself carries no instrumentation. A traced job wraps the public
functions of each layer module in every sepax namespace, and every
module-level table, that binds them; a call then records one span
``[name, start, end, parent, job]``, where ``parent`` is the index of the
enclosing span in the same job (-1 at the top). Spans stay in memory and
are written once, when the job ends.

Generator functions are not wrapped: their work happens while the caller
iterates, so it is counted in the caller's span. Methods are not wrapped
either; a method's time is counted in the span of the function calling it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "mechanisms", "axioms", "verify", "paths", "amd", "lp", "cli")


class Tracer:
    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, job = self.spans, self._stack, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, job])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module already imported."""
        modules = {
            layer: sys.modules[f"sepax.{layer}"] for layer in LAYERS if f"sepax.{layer}" in sys.modules
        }
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or inspect.isgeneratorfunction(inspect.unwrap(obj))
                ):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))

        def swap(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for module in [importlib.import_module("sepax"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        new = swap(value)
                        if new is not None:
                            obj[key] = new
                else:
                    new = swap(obj)
                    if new is not None:
                        setattr(module, attr, new)


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of it that its child spans cover. ``spans`` is one job's list."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def outermost_time(spans: list, names: set[str]) -> float:
    """Wall time inside calls to any of ``names``, counting a call nested in
    another such call once."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def import_self_times(stderr_text: str) -> dict[str, float]:
    """Self import time, in seconds, of each sepax layer module, from the
    interpreter's ``-X importtime`` report."""
    out: dict[str, float] = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[2].strip()
        if module.startswith("sepax.") and layer_of(module[6:]) in LAYERS:
            try:
                out[module[6:]] = out.get(module[6:], 0.0) + int(fields[0]) / 1e6
            except ValueError:
                continue
    return out
