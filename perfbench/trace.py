"""In-memory spans recorded by the benchmark around its calls into the
package's modules, written once when the run ends."""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Spans (name, start, end, parent, job) kept in memory.

    ``span`` opens a span as a child of the innermost open one; ``instrument``
    temporarily wraps a module or class attribute so every call into it
    records a span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job, **attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def instrument(self, owner, attr: str, name: str, on_return=None):
        """Wrap owner.attr for the duration of the block. `on_return(rec,
        args, result)` may add fields to the span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = orig(*args, **kwargs)
                if on_return is not None:
                    on_return(rec, args, result)
                return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def named(self, name: str, job=None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and (job is None or s["job"] == job)]

    def total(self, name: str, job=None) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, job))

    def self_times(self, job=None) -> dict[str, float]:
        """Per span name: duration minus the union of its children's
        intervals, summed over spans."""
        kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append((s["start"], s["end"]))
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if job is not None and s["job"] != job:
                continue
            covered, cur_s, cur_e = 0.0, None, None
            for a, b in sorted(kids.get(i, [])):
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
