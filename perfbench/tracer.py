"""Span tracer for the benchmark's traced run.

The tracer replaces each traced function object with a wrapper at every
binding site in the traced package: ``from .intlinalg import det`` copies
``det`` into other modules, so the search is by identity over every module
namespace, not by name. Methods are wrapped on their classes. Each call
records one span (name, start, end, parent) in flat arrays that stay in
memory until the run ends.

Self time of a span is its duration minus the durations of its direct
children. Children of one span run one after another in a single thread,
so they never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records spans and counters; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, after=None):
        """A wrapper that records one span per call of ``fn``.

        ``after(args, result)`` runs once the call returns, outside the
        span's timed interval but inside its parent's.
        """
        nid = self.intern(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def aggregate(self):
        """{name: (calls, self_seconds)} over every recorded span."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        own = dur.copy()
        nested = parents >= 0
        np.subtract.at(own, parents[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span to ``path`` as an uncompressed .npz file."""
        n = len(self.start)
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
                 parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
                 start=np.frombuffer(self.start, dtype=np.float64, count=n),
                 end=np.frombuffer(self.end, dtype=np.float64, count=n))


def _package_modules(package):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def install(tracer, package, targets):
    """Wrap every target of ``package`` at every binding site.

    ``targets`` is a list of ``(span_name, module, path, after)``: ``path``
    is ``"func"`` for a module function or ``"Class.method"`` for a method.
    Returns ``(restore, missing)``: calling ``restore()`` puts back every
    original binding; ``missing`` names the targets that were not found.
    """
    modules = _package_modules(package)
    undo = []
    missing = []
    for span_name, module, path, after in targets:
        mod = sys.modules.get(f"{package}.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(span_name)
            continue
        if owner_name:
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = tracer.wrap(fn, span_name, after)
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            undo.append((owner, attr, raw))
            continue
        wrapped = tracer.wrap(raw, span_name, after)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, name, wrapped)
                    undo.append((m, name, raw))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore, missing
