"""In-memory span tracer that wraps functions from outside the traced program.

A span is (name, start, end, parent).  Spans live in flat arrays while the
benchmark runs and are written out once at the end.  Wrapping is done by
replacing a function in the namespace that binds it, so the traced program
needs no edits; :meth:`Tracer.uninstall` puts every original back.

A span's self time is its duration minus the part of it covered by its
child spans.  The tracer keeps one stack, so it expects one thread: children
of one parent never overlap, and :func:`self_times` checks that they do not.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans and counters; counters are plain sums keyed by name."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.labels: dict = {}
        self._undo: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with a span named ``name`` around every call.

        ``hook(tracer, span_index, args, kwargs, result)`` runs after the span
        closes and records counters taken from the call's inputs and result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, hook=None):
        """Generator function ``fn`` with a span around each resumption.

        The generator runs interleaved with its consumer, so one span per
        ``next`` keeps spans nested; ``hook`` runs once per yielded item.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def resume():
                try:
                    while True:
                        idx = self.open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self.close(idx)
                        if hook is not None:
                            hook(self, idx, args, kwargs, item)
                        yield item
                finally:
                    gen.close()

            return resume()

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Bind ``replacement`` as ``owner.attr`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span and the name table to one ``.npz`` file."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its children cover.

    Children are clipped to their parent's interval.  Raises if two children
    of one parent overlap, which a single-threaded trace cannot produce.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.intp)
    own = end - start
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    s = np.maximum(start[child], start[p])
    e = np.maximum(np.minimum(end[child], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    if np.any((p[1:] == p[:-1]) & (s[1:] < e[:-1])):
        raise ValueError("child spans of one parent overlap; the trace is not single-threaded")
    return own - np.bincount(p, weights=e - s, minlength=len(own))
