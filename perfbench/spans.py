"""In-memory tracing of qbcsim layers from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper
under every name a qbcsim module binds it to (``strategy`` looks up
``binomial_window_probability`` in its own namespace, ``cli`` calls
``strategy.optimize`` through the module), and ``uninstall`` puts the
originals back.  An untraced run never calls ``install``.

Each wrapped call adds its duration to its caller's child time, so a
layer's self time is its duration minus the time its wrapped callees
took.  Calls of the coarse layers (``keep_spans``) are kept as spans
with their parent; the hot inner functions (about a million calls per
optimiser round) are only aggregated per name.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self s)
        self._stack: list[list] = []  # per open call: [child seconds, nearest kept span id]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _record(self, name, fn, keep, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            span_id = parent_id
            if keep:
                self._next_id += 1
                span_id = self._next_id
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent:
                    parent[0] += duration
                self.calls[name] += 1
                self.seconds[name] += duration
                self.self_seconds[name] += duration - frame[0]
                if keep:
                    self.spans.append(
                        (span_id, parent_id, name, start, end, duration - frame[0])
                    )
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a kept span named ``name``."""
        return self._record(name, fn, True, None)(*args)

    def install(self, modules: dict, targets) -> None:
        """Wrap each ``(module key, attribute, keep_spans, counter)`` target
        wherever any of ``modules`` (key -> module) binds it."""
        for key, attr, keep, count in targets:
            original = getattr(modules[key], attr)
            wrapper = self._record(f"{key}.{attr}", original, keep, count)
            for module in modules.values():
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)
                        self._patched.append((module, bound, original))

    def uninstall(self) -> None:
        for module, bound, original in reversed(self._patched):
            setattr(module, bound, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the kept spans and the per-name totals as JSON."""
        names = sorted(self.calls)
        doc = {
            "spans": [
                dict(zip(("id", "parent", "name", "start", "end", "self_s"), span))
                for span in self.spans
            ],
            "totals": {
                name: {
                    "calls": self.calls[name],
                    "s": self.seconds[name],
                    "self_s": self.self_seconds[name],
                }
                for name in names
            },
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
