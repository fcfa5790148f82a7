"""Layer spans and counters for one traced benchmark job.

A layer is one module of the program.  The tracer replaces callables with
wrappers that know which layer the callable belongs to.  A wrapper opens a
span only where the call crosses from one layer into another; a call that
stays inside the layer it was made from runs untimed.  The exception is a
*metered* callable, one that feeds a named metric: it opens a span on every
call, so that its metric also sees the calls made from inside its own
layer.  A nested span of the same layer leaves that layer's self time
unchanged, because self time is partitioned, not summed.

Spans are not stored one by one: there can be millions of them.  Each span
adds, when it closes, to the aggregate of its group:

* ``calls``    the spans opened,
* ``total_s``  the duration of the outermost spans of the group (a span
  nested in another span of the same group adds nothing, so nothing is
  counted twice),
* ``self_s``   each span's duration minus the time its child spans cover.

The clock is injectable so that the span arithmetic can be tested with a
fake clock.
"""

from __future__ import annotations

import time

ROOT = "bench"


class Group:
    """Aggregate of the spans of one group; a group belongs to one layer."""

    __slots__ = ("layer", "calls", "total_s", "self_s", "depth")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open spans, innermost last: [layer, time covered by child spans]
        self.stack = [[ROOT, 0.0]]
        self.groups = {}
        self.counters = {}
        self._patches = []

    # -- wrapping -------------------------------------------------------------

    def group(self, name, layer):
        g = self.groups.get(name)
        if g is None:
            g = self.groups[name] = Group(layer)
        elif g.layer != layer:
            raise ValueError(f"group {name} belongs to layer {g.layer}, not {layer}")
        return g

    def wrap(self, fn, layer, group=None, metered=False, observe=None):
        """A traced stand-in for ``fn``.  ``observe(args, result)`` runs
        after a span closes, outside every span's time."""
        stack = self.stack
        clock = self.clock
        g = self.group(group or layer, layer)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer and not metered:
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            g.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                g.depth -= 1
                duration = end - start
                g.calls += 1
                g.self_s += duration - span[1]
                if not g.depth:
                    g.total_s += duration
                parent[1] += duration
            if observe is not None:
                observe(args, result)
                parent[1] += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def rebind(self, namespace, name, new):
        """Set ``namespace.name = new`` and remember the old value."""
        self._patches.append((namespace, name, namespace.__dict__[name]))
        setattr(namespace, name, new)

    def patch_method(self, cls, name, layer, group=None, metered=False, observe=None):
        """Wrap a function, staticmethod or classmethod stored on ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self.wrap(raw.__func__, layer, group, metered, observe))
        else:
            new = self.wrap(raw, layer, group, metered, observe)
        self.rebind(cls, name, new)

    def restore(self):
        """Undo every rebinding, newest first."""
        while self._patches:
            namespace, name, old = self._patches.pop()
            setattr(namespace, name, old)

    # -- reading --------------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def raise_to(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def covered_s(self):
        """Time covered by the spans opened straight from the root."""
        return self.stack[0][1]

    def reset(self):
        """Zero every aggregate and counter; wrappers stay in place."""
        if len(self.stack) != 1:
            raise RuntimeError("reset inside an open span")
        self.stack[0][1] = 0.0
        for g in self.groups.values():
            g.calls = 0
            g.total_s = 0.0
            g.self_s = 0.0
        self.counters.clear()
