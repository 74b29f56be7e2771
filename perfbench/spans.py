"""In-memory span recorder that wraps module attributes from the outside.

The benchmark traces the package without editing it: each target is a
function looked up by name in some module's namespace (for example
`pbftest.permute.gram`, the name `permutation_test` calls).  Replacing that
attribute with a timing wrapper records one span per call, with the span
that was open when it started as its parent.  A target whose name no longer
exists is listed as absent, so a renamed function reads as "not measured"
rather than as zero work.
"""

import functools
import importlib
import time
from collections import Counter


class Span:
    """One call of a wrapped function: layer, times and its parent span."""

    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "outer", "attrs")

    def __init__(self, name, layer, parent, outer):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.outer = outer  # no enclosing span of the same layer
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.duration - self.child_s


class Tracer:
    """Installs wrappers, keeps finished spans and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._depth = Counter()
        self._undo = []

    # -- wrapping -------------------------------------------------------

    def _span_wrapper(self, fn, name, layer, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, layer, parent, tracer._depth[layer] == 0)
            tracer._depth[layer] += 1
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if annotate is not None:
                annotate(span, fn, args, kwargs, result)
            return result

        return wrapped

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _replace(self, target: str, make):
        module_name, _, attr = target.rpartition(".")
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(target)
            return
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def wrap(self, target: str, layer: str, annotate=None):
        """Record a span of `layer` for every call through `target`."""
        self._replace(target, lambda fn: self._span_wrapper(fn, target, layer, annotate))

    def count(self, target: str, counter: str):
        """Count calls through `target` without timing them."""
        self._replace(target, lambda fn: self._count_wrapper(fn, counter))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ----------------------------------------------------

    def of(self, layer: str):
        return [s for s in self.spans if s.layer == layer]

    def busy_s(self, layer: str) -> float:
        """Wall time covered by the layer's spans (nested ones counted once)."""
        return sum(s.duration for s in self.of(layer) if s.outer)

    def self_s(self, layer: str) -> float:
        """Time inside the layer's spans not covered by any child span."""
        return sum(s.self_s for s in self.of(layer))
